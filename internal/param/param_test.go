package param

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rldecide/internal/mathx"
)

func space(t *testing.T) *Space {
	t.Helper()
	return MustSpace(
		NewIntSet("rk_order", 3, 5, 8),
		NewCategorical("framework", "rllib", "stablebaselines", "tfagents"),
		NewCategorical("algo", "ppo", "sac"),
		NewIntRange("nodes", 1, 2),
		NewIntSet("cores", 2, 4),
	)
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty space should fail")
	}
	if _, err := NewSpace(NewIntSet("a", 1), NewIntSet("a", 2)); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := NewSpace(NewIntSet("", 1)); err == nil {
		t.Error("unnamed should fail")
	}
}

func TestSampleContainsProperty(t *testing.T) {
	s := space(t)
	rng := mathx.NewRand(1)
	f := func(_ uint8) bool {
		a := s.Sample(rng)
		return s.Contains(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCountMatchesEnumerate: Count is len(Enumerate()) for every kind,
// which is what lets density skip the enumeration.
func TestCountMatchesEnumerate(t *testing.T) {
	one := NewFloatRange("one", 0, 1)
	one.GridPoints = 1
	for _, p := range []Param{
		NewIntSet("s", 3, 5, 8), NewCategorical("c", "a", "b"), NewIntRange("r", -3, 4),
		NewFloatRange("f", 0, 1), NewLogFloatRange("l", 1e-3, 1), one,
	} {
		if p.Count() != len(p.Enumerate()) {
			t.Errorf("%s: Count() = %d, len(Enumerate()) = %d", p.Name(), p.Count(), len(p.Enumerate()))
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if Str("x").Str() != "x" || Str("x").Kind() != KindString {
		t.Error("Str wrong")
	}
	if Int(3).Int() != 3 || Int(3).Float() != 3.0 {
		t.Error("Int wrong")
	}
	if Float(2.5).Float() != 2.5 || Float(2.5).Int() != 2 {
		t.Error("Float wrong")
	}
	if Int(3).String() != "3" || Float(0.5).String() != "0.5" {
		t.Error("String renders wrong")
	}
	if !Int(3).Equal(Int(3)) || Int(3).Equal(Float(3)) {
		t.Error("Equal wrong")
	}
}

func TestAssignmentKeyCanonical(t *testing.T) {
	a := Assign(Bind("b", Int(1)), Bind("a", Str("x")))
	b := Assign(Bind("a", Str("x")), Bind("b", Int(1)))
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != "a=x,b=1" {
		t.Fatalf("key format %q", a.Key())
	}
	c := a.Clone()
	c.Set("b", Int(2))
	if a.Value("b").Int() != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestFloatRangeSampling(t *testing.T) {
	p := NewFloatRange("lr", 0.1, 0.9)
	rng := mathx.NewRand(2)
	for i := 0; i < 100; i++ {
		v := p.Sample(rng)
		if v.Float() < 0.1 || v.Float() > 0.9 {
			t.Fatalf("sample %v out of range", v)
		}
	}
	vals := p.Enumerate()
	if len(vals) != 5 || vals[0].Float() != 0.1 || vals[4].Float() != 0.9 {
		t.Fatalf("enumerate %v", vals)
	}
}

func TestLogFloatRange(t *testing.T) {
	p := NewLogFloatRange("lr", 1e-5, 1e-1)
	rng := mathx.NewRand(3)
	// Log-uniform: ~half the samples below the geometric midpoint 1e-3.
	below := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Sample(rng).Float() < 1e-3 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("log-uniform midpoint fraction %v, want ~0.5", frac)
	}
	vals := p.Enumerate()
	if math.Abs(vals[2].Float()-1e-3) > 1e-9 {
		t.Fatalf("log grid midpoint %v", vals[2])
	}
}

func TestContainsRejects(t *testing.T) {
	s := space(t)
	a := s.Sample(mathx.NewRand(4))
	a.Set("rk_order", Int(7))
	if s.Contains(a) {
		t.Error("invalid rk order accepted")
	}
	b := s.Sample(mathx.NewRand(5))
	b = slices.DeleteFunc(b, func(bd Binding) bool { return bd.Name == "algo" })
	if s.Contains(b) {
		t.Error("incomplete assignment accepted")
	}
	c := s.Sample(mathx.NewRand(6))
	c.Set("framework", Str("torchbeast"))
	if s.Contains(c) {
		t.Error("unknown framework accepted")
	}
}

func TestGetParam(t *testing.T) {
	s := space(t)
	p, ok := s.Get("framework")
	if !ok || p.Name() != "framework" {
		t.Fatal("Get failed")
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of unknown should fail")
	}
	if len(s.Params()) != 5 {
		t.Fatal("Params wrong")
	}
}

func TestIntRange(t *testing.T) {
	p := NewIntRange("n", 1, 3)
	vals := p.Enumerate()
	if len(vals) != 3 || vals[0].Int() != 1 || vals[2].Int() != 3 {
		t.Fatalf("enumerate %v", vals)
	}
	if p.Contains(Int(0)) || !p.Contains(Int(2)) || p.Contains(Float(2)) {
		t.Error("Contains wrong")
	}
}

// TestIntRangeWidest: the widest ranges an int counts build, count and
// sample inside their bounds.
func TestIntRangeWidest(t *testing.T) {
	rng := mathx.NewRand(1)
	for _, p := range []IntRange{
		NewIntRange("lo", math.MinInt, -2),
		NewIntRange("hi", 0, math.MaxInt-1),
		NewIntRange("mid", -(1 << 62), 1<<62-2),
	} {
		if p.Count() != math.MaxInt {
			t.Errorf("%s: Count %d, want %d", p.Name(), p.Count(), math.MaxInt)
		}
		for range 100 {
			if v := p.Sample(rng); !p.Contains(v) {
				t.Fatalf("%s: sampled %d outside [%d, %d]", p.Name(), v.Int(), p.Lo, p.Hi)
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty-cat":  func() { NewCategorical("x") },
		"empty-ints": func() { NewIntSet("x") },
		"bad-range":  func() { NewIntRange("x", 3, 1) },
		"wide-range": func() { NewIntRange("x", -(1 << 62), 1<<62) },
		"all-ints":   func() { NewIntRange("x", math.MinInt, math.MaxInt) },
		"2^63-ints":  func() { NewIntRange("x", math.MinInt, -1) },
		"bad-float":  func() { NewFloatRange("x", 2, 1) },
		"bad-log":    func() { NewLogFloatRange("x", 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
