package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Stream(t *testing.T) {
	// The stream must be deterministic, non-repeating, and must advance
	// the state by the SplitMix64 golden-ratio increment.
	state := uint64(1234567)
	got := []uint64{SplitMix64(&state), SplitMix64(&state), SplitMix64(&state)}
	inc := uint64(0x9e3779b97f4a7c15)
	want := uint64(1234567)
	for i := 0; i < 3; i++ {
		want += inc // wraps modulo 2^64
	}
	if state != want {
		t.Fatalf("state advanced wrongly: %x want %x", state, want)
	}
	state = 1234567
	again := []uint64{SplitMix64(&state), SplitMix64(&state), SplitMix64(&state)}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("SplitMix64 not deterministic at %d: %x vs %x", i, got[i], again[i])
		}
	}
	if got[0] == got[1] || got[1] == got[2] {
		t.Fatalf("SplitMix64 repeated values: %x", got)
	}
}

func TestSeederIndependence(t *testing.T) {
	a := NewSeeder(1)
	b := NewSeeder(2)
	if a.Next() == b.Next() {
		t.Fatal("nearby root seeds produced identical child seeds")
	}
	c := NewSeeder(7)
	d := NewSeeder(7)
	for i := 0; i < 10; i++ {
		if c.Next() != d.Next() {
			t.Fatal("same root seed must produce identical streams")
		}
	}
}

func TestNewRandDeterministic(t *testing.T) {
	r1 := NewRand(42)
	r2 := NewRand(42)
	for i := 0; i < 100; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("NewRand(42) streams diverged")
		}
	}
}

func TestClip(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clip(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clip(%v,%v,%v)=%v want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClipProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		y := Clip(x, -1, 1)
		return y >= -1 && y <= 1 && (x < -1 || x > 1 || y == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean=%v want 5", m)
	}
	if s := Std(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("Std=%v want 2", s)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty-slice Mean/Std should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 || Sum(xs) != 12 {
		t.Errorf("Min/Max/Sum wrong: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Median(xs) != 3 {
		t.Errorf("Median=%v want 3", Median(xs))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Error("extreme percentiles wrong")
	}
	if p := Percentile(xs, 0.25); p != 2 {
		t.Errorf("P25=%v want 2", p)
	}
}

func TestApproxEq(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1 + 1e-6, 1e-9, false},
		{0, 1e-12, 1e-9, true},                 // absolute regime near zero
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative regime for large magnitudes
		{1e12, 1.001e12, 1e-9, false},
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.Inf(1), 1e300, 1e-9, false},
		{math.NaN(), math.NaN(), 1e-9, false},
		{math.NaN(), 1, 1e-9, false},
		{-2, -2, 0, true},
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEq(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
	// Symmetry holds for arbitrary inputs.
	sym := func(a, b float64) bool { return ApproxEq(a, b, 1e-9) == ApproxEq(b, a, 1e-9) }
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
}

func TestWithin(t *testing.T) {
	if !Within(1.0, 1.05, 0.1) || Within(1.0, 1.2, 0.1) {
		t.Fatal("Within absolute tolerance wrong")
	}
	if Within(math.NaN(), math.NaN(), 1) {
		t.Fatal("NaN must not compare within anything")
	}
}
