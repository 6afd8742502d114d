// Package tensor implements the dense linear-algebra kernels used by the
// neural-network stack: row-major matrices, matrix products, and elementwise
// vector kernels. It is deliberately small — just what the MLP policies and
// value functions need — but written to be cache-friendly and allocation-free
// in steady state. Every kernel is serial: the cores belong to the layers
// that run trials and actors side by side (core.Study.Parallelism, executor
// slots, internal/distrib), not to a single product.
package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Mat is a dense row-major matrix of float64.
type Mat struct {
	R, C int
	Data []float64
}

// New returns an r×c zero matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: New(%d,%d) negative dims", r, c))
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (length r*c, row-major) in a Mat without copying.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d with %d elements", r, c, len(data)))
	}
	return &Mat{R: r, C: c, Data: data}
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i (shared storage).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Mat) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with uniform values in [-scale, scale].
func (m *Mat) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// Orthogonalish fills m with a scaled He/Xavier-style init: normal values
// scaled by gain/sqrt(fan-in). It is what the policy networks use.
func (m *Mat) Orthogonalish(rng *rand.Rand, gain float64) {
	std := gain / math.Sqrt(float64(m.C))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// MulInto computes dst = a @ b. dst must be a.R×b.C and must not alias a or b.
func MulInto(dst, a, b *Mat) {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: MulInto inner dims %d vs %d", a.C, b.R))
	}
	if dst.R != a.R || dst.C != b.C {
		panic("tensor: MulInto dst shape mismatch")
	}
	if dst == a || dst == b {
		panic("tensor: MulInto dst aliases input")
	}
	mulRowsPlain(dst, a, b)
}

// mulRowsPlain computes dst = a @ b using an ikj loop order that streams b
// rows through cache. Adjacent k rows are applied in pairs —
// each output element still receives its updates one at a time in ascending
// k order (two sequential adds, never a re-grouped sum), so the result is
// bit-identical to the unpaired loop while halving the dst row traffic. The
// zero-skip of the scalar loop is preserved by falling back to axpyRow when
// either coefficient of a pair is zero.
func mulRowsPlain(dst, a, b *Mat) {
	n, p := a.C, b.C
	for i := 0; i < a.R; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for x := range drow {
			drow[x] = 0
		}
		arow := a.Data[i*n : (i+1)*n]
		k := 0
		for ; k+1 < n; k += 2 {
			a0, a1 := arow[k], arow[k+1]
			if a0 == 0 || a1 == 0 {
				if a0 != 0 {
					axpyRow(drow, a0, b.Data[k*p:(k+1)*p])
				}
				if a1 != 0 {
					axpyRow(drow, a1, b.Data[(k+1)*p:(k+2)*p])
				}
				continue
			}
			b0 := b.Data[k*p : (k+1)*p][:len(drow)]
			b1 := b.Data[(k+1)*p : (k+2)*p][:len(drow)]
			for j := range drow {
				s := drow[j] + a0*b0[j]
				drow[j] = s + a1*b1[j]
			}
		}
		if k < n {
			if aik := arow[k]; aik != 0 {
				axpyRow(drow, aik, b.Data[k*p:(k+1)*p])
			}
		}
	}
}

// axpyRow computes drow += a * brow.
func axpyRow(drow []float64, a float64, brow []float64) {
	brow = brow[:len(drow)]
	for j := range drow {
		drow[j] += a * brow[j]
	}
}

// Ensure returns m resized to r×c, reusing its backing storage when the
// capacity allows; contents are unspecified. Allocates only when m is nil
// or too small — the building block for steady-state allocation-free
// scratch buffers in the training loops.
func Ensure(m *Mat, r, c int) *Mat {
	if m != nil && cap(m.Data) >= r*c {
		m.R, m.C = r, c
		m.Data = m.Data[:r*c]
		return m
	}
	return New(r, c)
}

// TransposeInto writes mᵀ into dst (dst must be m.C×m.R and must not alias
// m). The j-outer loop streams dst sequentially; m is read with stride C,
// which for the weight matrices this packs (tens of KiB) stays cache
// resident.
func TransposeInto(dst, m *Mat) {
	if dst.R != m.C || dst.C != m.R {
		panic("tensor: TransposeInto dst shape mismatch")
	}
	r, c := m.R, m.C
	for j := 0; j < c; j++ {
		drow := dst.Data[j*r : (j+1)*r]
		for i := range drow {
			drow[i] = m.Data[i*c+j]
		}
	}
}

// packRowThreshold is the minimum number of output rows for which
// MulIntoPacked packs bᵀ: the O(n·p) transpose is amortized over the
// a.R×n×p multiply, so below this many rows the pack overhead outweighs
// the wide-kernel win and the plain kernel is used instead.
const packRowThreshold = 8

// packMinK is the minimum inner dimension worth packing: below it the
// transpose and per-group loop overhead outweigh the wide kernel (the
// first policy layer, whose fan-in is the observation size, stays on the
// plain kernel).
const packMinK = 16

// packMaxK caps the inner dimension of the packed kernel: the per-row
// nonzero-index scratch lives on the stack (packMaxK*4 bytes), so larger
// inner dims fall back to the plain kernel rather than allocate.
const packMaxK = 1024

// MulIntoPacked computes dst = a @ b like MulInto, but through a
// caller-provided transposed-B scratch buffer: b is packed as bᵀ into bt
// (grown via Ensure and returned for reuse), turning every output element
// into a contiguous dot product that the 8-column kernel evaluates with
// independent accumulator chains. Each element's chain applies the same
// ascending-k additions with the same zero-skips as mulRowsPlain, so the
// result is bit-identical to MulInto — the packing changes memory layout,
// never arithmetic. Shapes outside the three pack gates fall back to
// MulInto untouched.
func MulIntoPacked(dst, a, b, bt *Mat) *Mat {
	if a.R < packRowThreshold || a.C < packMinK || a.C > packMaxK {
		MulInto(dst, a, b)
		return bt
	}
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: MulIntoPacked inner dims %d vs %d", a.C, b.R))
	}
	if dst.R != a.R || dst.C != b.C {
		panic("tensor: MulIntoPacked dst shape mismatch")
	}
	if dst == a || dst == b {
		panic("tensor: MulIntoPacked dst aliases input")
	}
	bt = Ensure(bt, b.C, b.R)
	TransposeInto(bt, b)
	mulRowsPacked(dst, a, bt)
	return bt
}

// mulRowsPacked computes dst = a @ btᵀ where bt is the packed transpose
// of b (bt row j = b column j). Eight output columns are
// evaluated per pass: eight independent accumulator chains (one serial FP
// chain per output element) hide the add latency a single chain is bound
// by, and arow is read once per octet instead of once per column.
//
// The zero-skip of mulRowsPlain is part of the bit contract (s + 0·x is
// not always s, and NaN/Inf must propagate identically), but testing
// arow[k] inside the 8-wide loop mispredicts badly on ReLU-sparse inputs.
// Instead the nonzero k indices are collected once per row — amortized
// over all p/8 column groups — so the inner loop is branch-free yet
// applies exactly mulRowsPlain's add sequence: ascending k, zeros
// skipped, one strictly sequential chain per output element, with the
// nonzero list walked pairwise (two loads per stream per iteration, two
// sequential adds per chain).
func mulRowsPacked(dst, a, bt *Mat) {
	n, p := a.C, bt.R
	var idxBuf [packMaxK]int32
	for i := 0; i < a.R; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*p : (i+1)*p]
		nz := idxBuf[:0]
		for k, av := range arow {
			if av != 0 {
				nz = append(nz, int32(k))
			}
		}
		j := 0
		for ; j+7 < p; j += 8 {
			b0 := bt.Data[j*n : (j+1)*n][:len(arow)]
			b1 := bt.Data[(j+1)*n : (j+2)*n][:len(arow)]
			b2 := bt.Data[(j+2)*n : (j+3)*n][:len(arow)]
			b3 := bt.Data[(j+3)*n : (j+4)*n][:len(arow)]
			b4 := bt.Data[(j+4)*n : (j+5)*n][:len(arow)]
			b5 := bt.Data[(j+5)*n : (j+6)*n][:len(arow)]
			b6 := bt.Data[(j+6)*n : (j+7)*n][:len(arow)]
			b7 := bt.Data[(j+7)*n : (j+8)*n][:len(arow)]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			if len(nz) == n {
				// Dense row: sequential k, no index indirection (and no
				// bounds checks on the b streams). The skip set is empty,
				// so this is the same add sequence as the indexed loop.
				k := 0
				for ; k+1 < n; k += 2 {
					a0, a1 := arow[k], arow[k+1]
					s0 += a0 * b0[k]
					s0 += a1 * b0[k+1]
					s1 += a0 * b1[k]
					s1 += a1 * b1[k+1]
					s2 += a0 * b2[k]
					s2 += a1 * b2[k+1]
					s3 += a0 * b3[k]
					s3 += a1 * b3[k+1]
					s4 += a0 * b4[k]
					s4 += a1 * b4[k+1]
					s5 += a0 * b5[k]
					s5 += a1 * b5[k+1]
					s6 += a0 * b6[k]
					s6 += a1 * b6[k+1]
					s7 += a0 * b7[k]
					s7 += a1 * b7[k+1]
				}
				if k < n {
					av := arow[k]
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
					s4 += av * b4[k]
					s5 += av * b5[k]
					s6 += av * b6[k]
					s7 += av * b7[k]
				}
				drow[j] = s0
				drow[j+1] = s1
				drow[j+2] = s2
				drow[j+3] = s3
				drow[j+4] = s4
				drow[j+5] = s5
				drow[j+6] = s6
				drow[j+7] = s7
				continue
			}
			t := 0
			for ; t+1 < len(nz); t += 2 {
				k0, k1 := int(nz[t]), int(nz[t+1])
				a0, a1 := arow[k0], arow[k1]
				s0 += a0 * b0[k0]
				s0 += a1 * b0[k1]
				s1 += a0 * b1[k0]
				s1 += a1 * b1[k1]
				s2 += a0 * b2[k0]
				s2 += a1 * b2[k1]
				s3 += a0 * b3[k0]
				s3 += a1 * b3[k1]
				s4 += a0 * b4[k0]
				s4 += a1 * b4[k1]
				s5 += a0 * b5[k0]
				s5 += a1 * b5[k1]
				s6 += a0 * b6[k0]
				s6 += a1 * b6[k1]
				s7 += a0 * b7[k0]
				s7 += a1 * b7[k1]
			}
			if t < len(nz) {
				k := int(nz[t])
				av := arow[k]
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
				s4 += av * b4[k]
				s5 += av * b5[k]
				s6 += av * b6[k]
				s7 += av * b7[k]
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
			drow[j+4] = s4
			drow[j+5] = s5
			drow[j+6] = s6
			drow[j+7] = s7
		}
		for ; j < p; j++ {
			brow := bt.Data[j*n : (j+1)*n][:len(arow)]
			s := 0.0
			for _, ki := range nz {
				k := int(ki)
				s += arow[k] * brow[k]
			}
			drow[j] = s
		}
	}
}

// Mul returns a new matrix a @ b.
func Mul(a, b *Mat) *Mat {
	dst := New(a.R, b.C)
	MulInto(dst, a, b)
	return dst
}

// MulTransAInto computes dst = aᵀ @ b (a is n×r, dst is r×c, b is n×c).
// Used for weight gradients: dW = xᵀ @ dy.
func MulTransAInto(dst, a, b *Mat) {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: MulTransAInto rows %d vs %d", a.R, b.R))
	}
	if dst.R != a.C || dst.C != b.C {
		panic("tensor: MulTransAInto dst shape mismatch")
	}
	if dst == a || dst == b {
		panic("tensor: MulTransAInto dst aliases input")
	}
	dst.Zero()
	// Adjacent k rows are applied in pairs per output row: element (i,j)
	// still gets its k then k+1 updates as two sequential adds in ascending
	// order, so this is bit-identical to the one-k-at-a-time loop (see
	// mulRowsPlain for the same pattern) while halving dst row traffic.
	n := a.R
	k := 0
	for ; k+1 < n; k += 2 {
		arow0 := a.Data[k*a.C : (k+1)*a.C]
		arow1 := a.Data[(k+1)*a.C : (k+2)*a.C]
		brow0 := b.Data[k*b.C : (k+1)*b.C]
		brow1 := b.Data[(k+1)*b.C : (k+2)*b.C]
		for i, av0 := range arow0 {
			av1 := arow1[i]
			if av0 == 0 && av1 == 0 {
				continue
			}
			drow := dst.Data[i*dst.C : (i+1)*dst.C]
			if av0 == 0 || av1 == 0 {
				if av0 != 0 {
					axpyRow(drow, av0, brow0)
				}
				if av1 != 0 {
					axpyRow(drow, av1, brow1)
				}
				continue
			}
			b0 := brow0[:len(drow)]
			b1 := brow1[:len(drow)]
			for j := range drow {
				s := drow[j] + av0*b0[j]
				drow[j] = s + av1*b1[j]
			}
		}
	}
	if k < n {
		arow := a.Data[k*a.C : (k+1)*a.C]
		brow := b.Data[k*b.C : (k+1)*b.C]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow(dst.Data[i*dst.C:(i+1)*dst.C], av, brow)
		}
	}
}

// MulTransBInto computes dst = a @ bᵀ (a is n×c, b is m×c, dst is n×m).
// Used for input gradients: dx = dy @ Wᵀ.
func MulTransBInto(dst, a, b *Mat) {
	if a.C != b.C {
		panic(fmt.Sprintf("tensor: MulTransBInto cols %d vs %d", a.C, b.C))
	}
	if dst.R != a.R || dst.C != b.R {
		panic("tensor: MulTransBInto dst shape mismatch")
	}
	if dst == a || dst == b {
		panic("tensor: MulTransBInto dst aliases input")
	}
	mulTransBRows(dst, a, b)
}

// mulTransBRows computes dst = a @ bᵀ. Each output element is one dot
// product evaluated in ascending-k order. Eight output columns are computed
// per pass: the eight accumulator chains are independent (one per output
// element, each a single serial ascending-k chain), which hides the add
// latency a lone chain is bound by
// and reads arow once per octet instead of once per column. Within a
// chain, k advances pairwise — two loads per b stream per iteration,
// applied as two strictly sequential adds — which keeps the chain serial
// (never a re-grouped sum) while halving loop overhead. Unlike the MulInto
// family there is no zero-skip here: this product never had one, and
// adding one would change the bits (s + 0·x is not always s).
func mulTransBRows(dst, a, b *Mat) {
	m, c := b.R, b.C
	for i := 0; i < a.R; i++ {
		arow := a.Data[i*a.C : (i+1)*a.C]
		drow := dst.Data[i*dst.C : (i+1)*dst.C]
		n := len(arow)
		j := 0
		for ; j+7 < m; j += 8 {
			b0 := b.Data[j*c : (j+1)*c][:n]
			b1 := b.Data[(j+1)*c : (j+2)*c][:n]
			b2 := b.Data[(j+2)*c : (j+3)*c][:n]
			b3 := b.Data[(j+3)*c : (j+4)*c][:n]
			b4 := b.Data[(j+4)*c : (j+5)*c][:n]
			b5 := b.Data[(j+5)*c : (j+6)*c][:n]
			b6 := b.Data[(j+6)*c : (j+7)*c][:n]
			b7 := b.Data[(j+7)*c : (j+8)*c][:n]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			k := 0
			for ; k+1 < n; k += 2 {
				a0, a1 := arow[k], arow[k+1]
				s0 += a0 * b0[k]
				s0 += a1 * b0[k+1]
				s1 += a0 * b1[k]
				s1 += a1 * b1[k+1]
				s2 += a0 * b2[k]
				s2 += a1 * b2[k+1]
				s3 += a0 * b3[k]
				s3 += a1 * b3[k+1]
				s4 += a0 * b4[k]
				s4 += a1 * b4[k+1]
				s5 += a0 * b5[k]
				s5 += a1 * b5[k+1]
				s6 += a0 * b6[k]
				s6 += a1 * b6[k+1]
				s7 += a0 * b7[k]
				s7 += a1 * b7[k+1]
			}
			if k < n {
				av := arow[k]
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
				s4 += av * b4[k]
				s5 += av * b5[k]
				s6 += av * b6[k]
				s7 += av * b7[k]
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
			drow[j+4] = s4
			drow[j+5] = s5
			drow[j+6] = s6
			drow[j+7] = s7
		}
		for ; j < m; j++ {
			brow := b.Data[j*c : (j+1)*c][:n]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// AddBias adds the bias row vector to every row of m in place.
func (m *Mat) AddBias(bias []float64) {
	if len(bias) != m.C {
		panic("tensor: AddBias length mismatch")
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// Scale multiplies every element by s in place.
func (m *Mat) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Add accumulates other into m in place; shapes must match.
func (m *Mat) Add(other *Mat) {
	if m.R != other.R || m.C != other.C {
		panic("tensor: Add shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += other.Data[i]
	}
}

// Axpy computes m += alpha * other in place.
func (m *Mat) Axpy(alpha float64, other *Mat) {
	if m.R != other.R || m.C != other.C {
		panic("tensor: Axpy shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += alpha * other.Data[i]
	}
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Frobenius returns the Frobenius norm of m.
func (m *Mat) Frobenius() float64 { return Norm2(m.Data) }

// String renders a compact shape descriptor, not the contents.
func (m *Mat) String() string { return fmt.Sprintf("Mat(%dx%d)", m.R, m.C) }
