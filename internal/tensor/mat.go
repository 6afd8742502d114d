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
		m.Data[i] = (float64(float64(rng.Float64())*2) - 1) * scale
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
	mulRows(dst, a, b)
}

// mulRowsPlain computes dst = a @ b using an ikj loop order that streams b
// rows through cache: the kernel off amd64 and the reference the amd64
// kernel is tested against. Adjacent k rows are applied in pairs —
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
				s := drow[j] + float64(a0*b0[j])
				drow[j] = s + float64(a1*b1[j])
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
		drow[j] += float64(a * brow[j])
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

// MulIntoPacked is MulInto, bit for bit; it returns bt untouched. It
// stays only so the service benchmark's tensor probes compile, and has no
// caller outside bench/ and tests.
func MulIntoPacked(dst, a, b, bt *Mat) *Mat {
	MulInto(dst, a, b)
	return bt
}

// Mul returns a new matrix a @ b.
func Mul(a, b *Mat) *Mat {
	dst := New(a.R, b.C)
	MulInto(dst, a, b)
	return dst
}

// MulTransBInto computes dst = a @ bᵀ (a is n×c, b is m×c, dst is n×m)
// by MulInto on a fresh transpose of b, so it allocates. It stays only so
// the service benchmark's tensor probes compile, and has no caller outside
// bench/ and tests; a dense layer takes dx = dz @ Wᵀ through a transpose
// into its own scratch.
func MulTransBInto(dst, a, b *Mat) {
	if dst == b {
		panic("tensor: MulTransBInto dst aliases input")
	}
	bt := New(b.C, b.R)
	TransposeInto(bt, b)
	MulInto(dst, a, bt)
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
		m.Data[i] += float64(alpha * other.Data[i])
	}
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Frobenius returns the Frobenius norm of m.
func (m *Mat) Frobenius() float64 { return Norm2(m.Data) }

// String renders a compact shape descriptor, not the contents.
func (m *Mat) String() string { return fmt.Sprintf("Mat(%dx%d)", m.R, m.C) }
