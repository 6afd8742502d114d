package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// randMatSparse fills an r×c matrix with a mix of ordinary values, exact
// zeros (ReLU-style sparsity, exercising the zero-skip paths), negative
// zeros, and large-magnitude values, so any accumulation-order or skip-set
// difference between kernels shows up in the bits.
func randMatSparse(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		switch rng.IntN(10) {
		case 0, 1, 2:
			m.Data[i] = 0
		case 3:
			m.Data[i] = math.Copysign(0, -1)
		case 4:
			m.Data[i] = (rng.Float64() - 0.5) * 1e12
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func bitsEqual(t *testing.T, label string, want, got *Mat) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, want.R, want.C, got.R, got.C)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d differs in bits: %x vs %x (%v vs %v)",
				label, i, math.Float64bits(want.Data[i]), math.Float64bits(got.Data[i]),
				want.Data[i], got.Data[i])
		}
	}
}

// The three reference products: one scalar accumulator per output element,
// ascending k. refMul and refMulTransA skip a zero left operand, the skip
// set every kernel applies; refMulTransB never skips, and MulTransBInto
// matches it bit for bit wherever b is finite (see mulRowsPacked). None of
// them shares code with a kernel.

func refMul(a, b *Mat) *Mat {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				if av := a.At(i, k); av != 0 {
					s += av * b.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refMulTransA(a, b *Mat) *Mat {
	out := New(a.C, b.C)
	for i := 0; i < a.C; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for k := 0; k < a.R; k++ {
				if av := a.At(k, i); av != 0 {
					s += av * b.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refMulTransB(a, b *Mat) *Mat {
	out := New(a.R, b.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.R; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func transposed(m *Mat) *Mat {
	t := New(m.C, m.R)
	TransposeInto(t, m)
	return t
}

// checkProducts holds the products of an r×n by n×p shape to the
// references: the forward product (a @ b) through MulInto and
// MulIntoPacked, dx = a @ btᵀ through MulTransBInto, and dW = atᵀ @ b the
// way a dense layer takes it, through transposes and then MulTransBInto or
// MulIntoPacked.
func checkProducts(t *testing.T, a, b, at, bt *Mat) {
	t.Helper()
	r, n, p := a.R, a.C, b.C
	label := func(s string) string { return fmt.Sprintf("%s %dx%dx%d", s, r, n, p) }
	wantMul := refMul(a, b)
	got := New(r, p)
	MulInto(got, a, b)
	bitsEqual(t, label("MulInto"), wantMul, got)
	got.Zero()
	scratch := MulIntoPacked(got, a, b, nil)
	bitsEqual(t, label("MulIntoPacked"), wantMul, got)
	// MulIntoPacked leaves the scratch alone exactly when it fell back.
	if packed := r >= packRowThreshold; (scratch != nil) != packed {
		t.Fatalf("%s: packed kernel taken = %v, want %v", label("MulIntoPacked"), scratch != nil, packed)
	}
	MulTransBInto(got, a, bt)
	bitsEqual(t, label("MulTransBInto"), refMulTransB(a, bt), got)
	wantTransA := refMulTransA(at, b)
	MulTransBInto(got, transposed(at), transposed(b))
	bitsEqual(t, label("dW by MulTransBInto"), wantTransA, got)
	MulIntoPacked(got, transposed(at), b, nil)
	bitsEqual(t, label("dW by MulIntoPacked"), wantTransA, got)
}

// TestKernelBitIdentitySweep is the determinism proof for the kernels: over
// randomized sparse shapes plus ones chosen to land on each side of the
// pack gate, every product must reproduce the scalar references bit for
// bit.
func TestKernelBitIdentitySweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2026))

	shapes := make([][3]int, 0, 64)
	for len(shapes) < 56 {
		shapes = append(shapes, [3]int{1 + rng.IntN(40), 1 + rng.IntN(40), 1 + rng.IntN(40)})
	}
	shapes = append(shapes,
		[3]int{48, 40, 40}, [3]int{130, 33, 31},
		[3]int{24, 300, 260}, // packed, with b far larger than the policy shapes
		[3]int{9, 1025, 11},  // a row longer than the stack's nonzero list
	)

	for _, sh := range shapes {
		r, n, p := sh[0], sh[1], sh[2]
		checkProducts(t, randMatSparse(rng, r, n), randMatSparse(rng, n, p),
			randMatSparse(rng, n, r), randMatSparse(rng, p, n))
	}
}

// TestKernelCensusShapes runs checkProducts at the campaign's shapes with
// fewer than eight output columns or a one-wide inner dimension — the
// kernel's column-by-column tail and its odd-k ends — once with dense
// operands (a tanh net) and once with half of them zero (a ReLU net).
func TestKernelCensusShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 43))
	fill := func(r, c int, sparse bool) *Mat {
		m := New(r, c)
		for i := range m.Data {
			if !sparse || rng.IntN(2) == 0 {
				m.Data[i] = rng.NormFloat64()
			}
		}
		return m
	}
	for _, sh := range [][3]int{
		{32, 64, 7}, {32, 64, 10}, // dx of the first layer
		{64, 32, 3}, {64, 128, 1}, // dW of the heads
		{32, 1, 64}, {128, 1, 64}, // dx of the value head
		{32, 64, 3}, {129, 64, 1}, // forward through the heads
	} {
		r, n, p := sh[0], sh[1], sh[2]
		for _, sparse := range []bool{false, true} {
			checkProducts(t, fill(r, n, sparse), fill(n, p, sparse), fill(n, r, sparse), fill(p, n, sparse))
		}
	}
}

// TestTransBNonFiniteB pins the one place MulTransBInto's zero-skip shows:
// a b holding Inf or NaN, for dx = dz @ Wᵀ a diverged net's W. A term whose
// a entry is zero is skipped, so an element meets the non-finite value only
// through a nonzero entry; without the skip every element of that column
// would be NaN. Both the eight-column groups and the column-by-column tail
// are covered (13 columns: one octet and five more), and 13 rows leave one
// past the tail's groups of four.
func TestTransBNonFiniteB(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 43))
	a := randMatSparse(rng, 13, 20)
	b := randMatSparse(rng, 13, 20)
	b.Set(2, 4, math.Inf(1))   // an octet column
	b.Set(10, 7, math.NaN())   // a tail column
	b.Set(12, 3, math.Inf(-1)) // the last tail column
	for i := 0; i < a.R; i += 2 {
		a.Set(i, 4, 0)
		a.Set(i, 7, 0)
		a.Set(i, 3, 0)
	}
	got := New(13, 13)
	MulTransBInto(got, a, b)
	bitsEqual(t, "MulTransBInto", refMul(a, transposed(b)), got)
	noSkip := refMulTransB(a, b)
	for _, j := range []int{2, 10, 12} {
		for i := 0; i < a.R; i += 2 {
			if v := got.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("(%d,%d) = %v: the zero term should have been skipped", i, j, v)
			}
			if !math.IsNaN(noSkip.At(i, j)) {
				t.Errorf("(%d,%d): the reference without the skip should read NaN", i, j)
			}
		}
	}
}
