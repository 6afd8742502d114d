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
	"slices"
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
// m). Eight rows of m are read side by side, so every read streams a row
// and every write fills eight adjacent elements (a cache line) of a dst
// row.
func TransposeInto(dst, m *Mat) {
	if dst.R != m.C || dst.C != m.R {
		panic("tensor: TransposeInto dst shape mismatch")
	}
	if dst == m {
		panic("tensor: TransposeInto dst aliases input")
	}
	r, c := m.R, m.C
	i := 0
	for ; i+7 < r; i += 8 {
		m0 := m.Data[i*c : (i+1)*c]
		m1 := m.Data[(i+1)*c : (i+2)*c][:len(m0)]
		m2 := m.Data[(i+2)*c : (i+3)*c][:len(m0)]
		m3 := m.Data[(i+3)*c : (i+4)*c][:len(m0)]
		m4 := m.Data[(i+4)*c : (i+5)*c][:len(m0)]
		m5 := m.Data[(i+5)*c : (i+6)*c][:len(m0)]
		m6 := m.Data[(i+6)*c : (i+7)*c][:len(m0)]
		m7 := m.Data[(i+7)*c : (i+8)*c][:len(m0)]
		for j, v := range m0 {
			d := dst.Data[j*r+i : j*r+i+8]
			d[0], d[1], d[2], d[3] = v, m1[j], m2[j], m3[j]
			d[4], d[5], d[6], d[7] = m4[j], m5[j], m6[j], m7[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range m.Data[i*c : (i+1)*c] {
			dst.Data[j*r+i] = v
		}
	}
}

// packRowThreshold is the fewest output rows that repay MulIntoPacked's
// transpose of b: acting on one observation runs faster on the plain
// kernel than packing W on every call.
const packRowThreshold = 8

// MulIntoPacked computes dst = a @ b like MulInto, bit for bit, through a
// caller-provided scratch: b is packed as bᵀ into bt (grown via Ensure and
// returned for reuse) for mulRowsPacked. Products of fewer than
// packRowThreshold rows go to MulInto. A dense layer takes its forward
// product here, and its weight gradient dW = xᵀ @ dz on xᵀ.
func MulIntoPacked(dst, a, b, bt *Mat) *Mat {
	if a.R < packRowThreshold {
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

// mulRowsPacked computes dst = a @ btᵀ, where row j of bt is column j of
// the right operand: a dense layer's forward product and weight gradient
// after MulIntoPacked's pack, and dx = dz @ Wᵀ on W as stored. Each output
// element is one serial FP chain in ascending k; the kernel only chooses
// which chains run side by side to hide the add latency one chain is
// bound by.
//
// Columns in groups of eight go row by row, eight chains along the row.
// Zero entries of a are skipped, as in mulRowsPlain, but testing arow[k]
// inside the 8-wide loop mispredicts badly on ReLU-sparse rows, so such a
// row's nonzero k are listed once and walked pairwise (two loads per
// stream, two sequential adds per chain). A row with no zero walks k
// directly, which spares it the index loads and the bounds checks the
// compiler cannot drop on b0[nz[t]].
//
// The p mod 8 columns left go column by column, four rows at a time. They
// add a's zero terms instead of skipping them, which changes no bit while
// the column is finite: each chain starts at +0 and never reaches −0, and
// s + (±0) = s. A column holding Inf or NaN takes the skipping loop. So
// the skip shows only where bt is not finite — for dx, a W holding Inf or
// NaN, a diverged net — and there a skipped 0·Inf keeps an element finite
// that would otherwise be NaN.
func mulRowsPacked(dst, a, bt *Mat) {
	n, p := a.C, bt.R
	p8 := p &^ 7
	// The nonzero list lives on the stack for rows of up to 1024; a
	// longer row costs one allocation per call.
	var idxBuf [1024]int32
	idx := idxBuf[:]
	if n > len(idx) && p8 > 0 {
		idx = make([]int32, n)
	}
	for i := 0; i < a.R && p8 > 0; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*p : (i+1)*p]
		dense := !slices.Contains(arow, 0)
		var nz []int32
		if !dense {
			// Every k is written and the count advances past the nonzero
			// ones only: a conditional move, no branch to mispredict.
			c := 0
			for k, av := range arow {
				idx[c] = int32(k)
				if av != 0 {
					c++
				}
			}
			nz = idx[:c]
		}
		for j := 0; j < p8; j += 8 {
			b0 := bt.Data[j*n : (j+1)*n][:len(arow)]
			b1 := bt.Data[(j+1)*n : (j+2)*n][:len(arow)]
			b2 := bt.Data[(j+2)*n : (j+3)*n][:len(arow)]
			b3 := bt.Data[(j+3)*n : (j+4)*n][:len(arow)]
			b4 := bt.Data[(j+4)*n : (j+5)*n][:len(arow)]
			b5 := bt.Data[(j+5)*n : (j+6)*n][:len(arow)]
			b6 := bt.Data[(j+6)*n : (j+7)*n][:len(arow)]
			b7 := bt.Data[(j+7)*n : (j+8)*n][:len(arow)]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			if dense {
				k := 0
				for ; k < len(arow)-1; k += 2 {
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
				if k < len(arow) {
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
			} else {
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
			}
			d := drow[j : j+8]
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
			d[4], d[5], d[6], d[7] = s4, s5, s6, s7
		}
	}
	for j := p8; j < p; j++ {
		bcol := bt.Data[j*n : (j+1)*n]
		// v - v is NaN exactly when v is Inf or NaN.
		finite := !slices.ContainsFunc(bcol, func(v float64) bool { return v-v != 0 })
		i := 0
		for ; finite && i+3 < a.R; i += 4 {
			a0 := a.Data[i*n : (i+1)*n][:len(bcol)]
			a1 := a.Data[(i+1)*n : (i+2)*n][:len(bcol)]
			a2 := a.Data[(i+2)*n : (i+3)*n][:len(bcol)]
			a3 := a.Data[(i+3)*n : (i+4)*n][:len(bcol)]
			var s0, s1, s2, s3 float64
			for k, bv := range bcol {
				s0 += a0[k] * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			dst.Data[i*p+j], dst.Data[(i+1)*p+j] = s0, s1
			dst.Data[(i+2)*p+j], dst.Data[(i+3)*p+j] = s2, s3
		}
		for ; i < a.R; i++ {
			arow := a.Data[i*n : (i+1)*n][:len(bcol)]
			s := 0.0
			for k, av := range arow {
				if av != 0 {
					s += av * bcol[k]
				}
			}
			dst.Data[i*p+j] = s
		}
	}
}

// Mul returns a new matrix a @ b.
func Mul(a, b *Mat) *Mat {
	dst := New(a.R, b.C)
	MulInto(dst, a, b)
	return dst
}

// MulTransBInto computes dst = a @ bᵀ (a is n×c, b is m×c, dst is n×m)
// through mulRowsPacked, whose layout b already is: a dense layer's
// dx = dz @ Wᵀ. Zero entries of a are skipped (see mulRowsPacked for where
// that shows in the bits).
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
	mulRowsPacked(dst, a, b)
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
