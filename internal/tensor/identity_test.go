package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
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
			m.Data[i] = (float64(rng.Float64()) - 0.5) * 1e12
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

// mulAdd returns s + a·b, rounded after the multiply and after the add,
// with the NaN an SSE2 multiply and add return when the first operand is
// the destination: a NaN operand comes through, the first one if both are
// NaN. rowAxpy computes a·b and then accumulator + product in that order.
// The rule is written out because the compiler picks the operand order of
// a Go s += a*b by register allocation, differently with -race.
func mulAdd(s, a, b float64) float64 {
	var p float64
	switch {
	case a != a:
		p = a
	case b != b:
		p = b
	default:
		p = float64(a * b)
	}
	if s != s || p != p {
		if s != s {
			return s
		}
		return p
	}
	return s + p
}

// The three reference products: one scalar accumulator per output element,
// ascending k, each term added by mulAdd. refMul and refMulTransA skip a
// zero left operand, the skip set every kernel applies; refMulTransB never
// skips, and a dense layer's dx matches it bit for bit wherever b is
// finite (see mulTail). None of them shares code with a kernel.

func refMul(a, b *Mat) *Mat {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				if av := a.At(i, k); av != 0 {
					s = mulAdd(s, av, b.At(k, j))
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
					s = mulAdd(s, av, b.At(k, j))
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
				s = mulAdd(s, a.At(i, k), b.At(j, k))
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

// checkProducts holds a dense layer's three products of an r×n by n×p
// shape to the references, each the way the layer takes it: the forward
// product a @ b through MulInto, dx = a @ btᵀ through MulInto on a
// transpose of bt, and dW = atᵀ @ b through MulInto on a transpose of at.
// The forward product is also held to mulRowsPlain, and the two wrappers
// the service benchmark calls to the products they stand for.
func checkProducts(t *testing.T, a, b, at, bt *Mat) {
	t.Helper()
	r, n, p := a.R, a.C, b.C
	label := func(s string) string { return fmt.Sprintf("%s %dx%dx%d", s, r, n, p) }
	wantMul := refMul(a, b)
	got := New(r, p)
	MulInto(got, a, b)
	bitsEqual(t, label("MulInto"), wantMul, got)
	mulRowsPlain(got, a, b)
	bitsEqual(t, label("mulRowsPlain"), wantMul, got)
	got.Fill(1)
	MulIntoPacked(got, a, b, nil)
	bitsEqual(t, label("MulIntoPacked"), wantMul, got)
	wantDx := refMulTransB(a, bt)
	MulInto(got, a, transposed(bt))
	bitsEqual(t, label("dx by MulInto"), wantDx, got)
	got.Fill(1)
	MulTransBInto(got, a, bt)
	bitsEqual(t, label("dx by MulTransBInto"), wantDx, got)
	MulInto(got, transposed(at), b)
	bitsEqual(t, label("dW by MulInto"), refMulTransA(at, b), got)
}

// TestKernelBitIdentitySweep is the determinism proof for the kernel: over
// randomized sparse shapes, plus ones that fill every register tile, leave
// each tail width, and run a row across several nonzero-list chunks, every
// product must reproduce the scalar references bit for bit.
func TestKernelBitIdentitySweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2026))

	shapes := make([][3]int, 0, 64)
	for len(shapes) < 56 {
		shapes = append(shapes, [3]int{1 + rng.IntN(40), 1 + rng.IntN(40), 1 + rng.IntN(40)})
	}
	shapes = append(shapes,
		[3]int{48, 40, 40}, [3]int{130, 33, 31},
		[3]int{24, 300, 260}, // b far larger than the policy shapes
		[3]int{9, 1025, 11},  // a row over four nonzero-list chunks
	)

	for _, sh := range shapes {
		r, n, p := sh[0], sh[1], sh[2]
		checkProducts(t, randMatSparse(rng, r, n), randMatSparse(rng, n, p),
			randMatSparse(rng, n, r), randMatSparse(rng, p, n))
	}
}

// TestKernelCensusShapes runs checkProducts at the campaign's shapes with
// fewer than eight output columns, an eight-column tile, or a one-wide
// inner dimension — mulTail's four-row groups and its side-by-side rows,
// rowAxpy's 8-column tile and its one-term chains — once with dense
// operands (a tanh net) and once with half of them zero (a ReLU net). The
// one-row heads are the products of acting on one observation.
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
		{1, 64, 3}, {1, 64, 1}, {1, 10, 64}, {1, 64, 64}, // acting
		{3, 64, 7}, {32, 64, 24}, // side-by-side tail rows; a 16- and an 8-column tile
	} {
		r, n, p := sh[0], sh[1], sh[2]
		for _, sparse := range []bool{false, true} {
			checkProducts(t, fill(r, n, sparse), fill(n, p, sparse), fill(n, r, sparse), fill(p, n, sparse))
		}
	}
}

// TestTransBNonFiniteB pins the one place the zero-skip shows in a dense
// layer's dx = dz @ Wᵀ: a W holding Inf or NaN, a diverged net. A term
// whose a entry is zero is skipped, so an element meets the non-finite
// value only through a nonzero entry; without the skip every element of
// that column would be NaN. Both the 8-column tile and the tail are
// covered (13 columns: one tile and five more), and 13 rows leave one past
// the tail's groups of four.
func TestTransBNonFiniteB(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 43))
	a := randMatSparse(rng, 13, 20)
	b := randMatSparse(rng, 13, 20)
	b.Set(2, 4, math.Inf(1))   // a tile column
	b.Set(10, 7, math.NaN())   // a tail column
	b.Set(12, 3, math.Inf(-1)) // the last tail column
	for i := 0; i < a.R; i += 2 {
		a.Set(i, 4, 0)
		a.Set(i, 7, 0)
		a.Set(i, 3, 0)
	}
	got := New(13, 13)
	MulInto(got, a, transposed(b))
	bitsEqual(t, "dx by MulInto", refMul(a, transposed(b)), got)
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

// TestKernelMatchesGo is the differential test of the amd64 kernel against
// the Go loops it replaces. In the columns rowAxpy computes, MulInto must
// equal refMul bit for bit, NaN payloads included (see mulAdd). The p mod 8
// tail columns, and every column off amd64, are Go, and there the compiler
// picks each instruction's operand order, so where two NaN payloads meet
// only the NaN is compared. On finite operands MulInto
// must also equal mulRowsPlain. The shapes run p from 1 to 40 over
// operands that start at odd offsets in their backing arrays (no load may
// assume 16-byte alignment), with rows of a that have no nonzero, are all
// −0, or run past 1 024 entries, and with Inf and NaN of two payloads in a,
// in b, and in both.
func TestKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	nan2 := math.Float64frombits(0xfff8_0000_0000_0abc) // another payload, negative
	// at returns an r×c matrix whose data starts off elements into a
	// backing array that carries guard values on both sides.
	at := func(r, c, off int) *Mat {
		buf := make([]float64, r*c+off+3)
		for i := range buf {
			buf[i] = math.NaN()
		}
		return FromSlice(r, c, buf[off:off+r*c])
	}
	for p := 1; p <= 40; p++ {
		for _, nonFinite := range []int{0, 1, 2, 3} { // none, in b, in a, in both
			r, n := 1+rng.IntN(13), 1+rng.IntN(70)
			if p%13 == 0 {
				n = 1025 + rng.IntN(40)
			}
			a, b := at(r, n, rng.IntN(3)), at(n, p, rng.IntN(3))
			copy(a.Data, randMatSparse(rng, r, n).Data)
			copy(b.Data, randMatSparse(rng, n, p).Data)
			row := a.Data[(r/2)*n : (r/2+1)*n] // a row with no nonzero
			for k := range row {
				row[k] = 0
			}
			if r > 2 {
				row = a.Data[(r-1)*n:] // a row of −0 only
				for k := range row {
					row[k] = math.Copysign(0, -1)
				}
			}
			poison := func(m *Mat) {
				for range 1 + m.R*m.C/50 {
					switch v := &m.Data[rng.IntN(len(m.Data))]; rng.IntN(4) {
					case 0:
						*v = math.Inf(1)
					case 1:
						*v = math.Inf(-1)
					case 2:
						*v = math.NaN()
					default:
						*v = nan2
					}
				}
			}
			if nonFinite&1 != 0 {
				poison(b)
			}
			if nonFinite&2 != 0 {
				poison(a)
			}
			label := fmt.Sprintf("%dx%dx%d non-finite %d", r, n, p, nonFinite)
			dst := at(r, p, rng.IntN(3))
			MulInto(dst, a, b)
			want, asmCols := refMul(a, b), 0
			if runtime.GOARCH == "amd64" {
				asmCols = p &^ 7
			}
			for e, w := range want.Data {
				g := dst.Data[e]
				if math.Float64bits(w) != math.Float64bits(g) && (e%p < asmCols || !math.IsNaN(w) || !math.IsNaN(g)) {
					t.Fatalf("%s vs refMul: element %d differs in bits: %x vs %x", label, e, math.Float64bits(w), math.Float64bits(g))
				}
			}
			if nonFinite == 0 {
				plain := New(r, p)
				mulRowsPlain(plain, a, b)
				bitsEqual(t, label+" vs mulRowsPlain", plain, dst)
			}
		}
	}
}
