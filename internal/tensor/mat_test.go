package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Mul got %v want %v", c.Data, want)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := New(5, 5)
	a.Randomize(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := Mul(a, id)
	for i := range a.Data {
		if !almostEq(c.Data[i], a.Data[i], 1e-12) {
			t.Fatal("A @ I != A")
		}
	}
}

// naiveMul is an obviously-correct reference implementation.
func naiveMul(a, b *Mat) *Mat {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				s += float64(a.At(i, k) * b.At(k, j))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := New(80, 64)
	b := New(64, 48)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	got := Mul(a, b)
	want := naiveMul(a, b)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-9) {
			t.Fatalf("Mul diverges from naive at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulTransA(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := New(7, 3)
	b := New(7, 4)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	// aᵀ @ b the way a dense layer takes its weight gradient: both
	// operands transposed, then the transposed-B product.
	at, bt := New(3, 7), New(4, 7)
	TransposeInto(at, a)
	TransposeInto(bt, b)
	dst := New(3, 4)
	MulTransBInto(dst, at, bt)
	// Reference: transpose a element by element.
	ref := New(3, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 3; j++ {
			ref.Set(j, i, a.At(i, j))
		}
	}
	want := naiveMul(ref, b)
	for i := range dst.Data {
		if !almostEq(dst.Data[i], want.Data[i], 1e-9) {
			t.Fatal("aᵀ @ b mismatch")
		}
	}
}

func TestMulTransB(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := New(5, 6)
	b := New(4, 6)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	dst := New(5, 4)
	MulTransBInto(dst, a, b)
	bt := New(6, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := naiveMul(a, bt)
	for i := range dst.Data {
		if !almostEq(dst.Data[i], want.Data[i], 1e-9) {
			t.Fatal("MulTransBInto mismatch")
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (A@B)@C == A@(B@C) within float tolerance, for random small matrices.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		a, b, c := New(3, 4), New(4, 2), New(2, 5)
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		c.Randomize(rng, 1)
		l := Mul(Mul(a, b), c)
		r := Mul(a, Mul(b, c))
		for i := range l.Data {
			if !almostEq(l.Data[i], r.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBiasScaleAxpy(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.AddBias([]float64{10, 20})
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddBias got %v", m.Data)
		}
	}
	m.Scale(2)
	if m.Data[0] != 22 {
		t.Fatal("Scale wrong")
	}
	n := m.Clone()
	n.Axpy(-1, m)
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("Axpy(-1, self-clone) should zero")
		}
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
}

func TestShapePanics(t *testing.T) {
	// Square operands make an aliased dst shape-legal, so only the alias
	// guard can reject it.
	sq := New(3, 3)
	for name, fn := range map[string]func(){
		"mul-inner":       func() { Mul(New(2, 3), New(4, 2)) },
		"addbias-len":     func() { New(2, 2).AddBias([]float64{1}) },
		"add-shape":       func() { New(2, 2).Add(New(3, 2)) },
		"dot-len":         func() { Dot([]float64{1}, []float64{1, 2}) },
		"fromslice":       func() { FromSlice(2, 2, []float64{1}) },
		"transpose-alias": func() { TransposeInto(sq, sq) },
		"transpose-shape": func() { TransposeInto(New(2, 3), New(2, 3)) },
		"transb-alias-a":  func() { MulTransBInto(sq, sq, New(3, 3)) },
		"transb-alias-b":  func() { MulTransBInto(sq, New(3, 3), sq) },
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

func TestCloneZeroFill(t *testing.T) {
	a := New(2, 3)
	a.Fill(7)
	b := a.Clone()
	if b.At(1, 2) != 7 {
		t.Fatal("Clone failed")
	}
	b.Zero()
	if b.Frobenius() != 0 {
		t.Fatal("Zero failed")
	}
	if a.At(1, 2) != 7 {
		t.Fatal("Clone shares storage with its source")
	}
	if a.String() != "Mat(2x3)" {
		t.Fatalf("String=%q", a.String())
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := New(64, 64)
	y := New(64, 64)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := New(256, 256)
	y := New(256, 256)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}
