package tensor

import (
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
// ascending k, and the zero-skip set that is part of each product's bit
// contract (s + 0·x is not always s) — a zero left operand is skipped by
// Mul and TransA, never by TransB. None of them shares code with a kernel.

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

// TestKernelBitIdentitySweep is the determinism proof for the kernels: over
// randomized sparse shapes plus ones chosen to land on each side of the
// pack gates, MulInto, MulIntoPacked, MulTransAInto and MulTransBInto must
// reproduce the scalar references bit for bit.
func TestKernelBitIdentitySweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2026))

	shapes := make([][3]int, 0, 64)
	for len(shapes) < 56 {
		shapes = append(shapes, [3]int{1 + rng.IntN(40), 1 + rng.IntN(40), 1 + rng.IntN(40)})
	}
	shapes = append(shapes,
		[3]int{48, 40, 40}, [3]int{130, 33, 31},
		[3]int{24, 300, 260},        // packed, with b far larger than the policy shapes
		[3]int{9, packMaxK + 1, 11}, // inner dim past packMaxK: plain fallback
	)

	for _, sh := range shapes {
		r, n, p := sh[0], sh[1], sh[2]
		a := randMatSparse(rng, r, n)
		b := randMatSparse(rng, n, p)
		at := randMatSparse(rng, n, r) // for MulTransAInto: dst is r×p
		bt := randMatSparse(rng, p, n) // for MulTransBInto: dst is r×p

		wantMul := refMul(a, b)
		got := New(r, p)
		MulInto(got, a, b)
		bitsEqual(t, "MulInto", wantMul, got)
		got.Zero()
		scratch := MulIntoPacked(got, a, b, nil)
		bitsEqual(t, "MulIntoPacked", wantMul, got)
		// MulIntoPacked leaves the scratch alone exactly when it fell back.
		if packed := r >= packRowThreshold && n >= packMinK && n <= packMaxK; (scratch != nil) != packed {
			t.Fatalf("MulIntoPacked %dx%dx%d: packed kernel taken = %v, want %v", r, n, p, scratch != nil, packed)
		}
		MulTransAInto(got, at, b)
		bitsEqual(t, "MulTransAInto", refMulTransA(at, b), got)
		MulTransBInto(got, a, bt)
		bitsEqual(t, "MulTransBInto", refMulTransB(a, bt), got)
	}
}
