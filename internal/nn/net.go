// Package nn is the from-scratch neural-network stack behind the PPO and
// SAC implementations: dense layers with hand-rolled backpropagation, MLPs,
// the Adam optimizer, and the categorical policy distribution.
// It is CPU-only, float64, deterministic given a seed, and sized for the
// small policy/value networks RL uses (tens of thousands of parameters).
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rldecide/internal/tensor"
)

// Activation is an elementwise nonlinearity: Tanh, ReLU or Identity. The
// interface is sealed; a layer applies the kind it holds once per batch
// (applyActivation, activationDeriv).
type Activation interface{ activation() }

// Tanh activation.
type Tanh struct{}

// ReLU activation.
type ReLU struct{}

// Identity activation (linear output layers).
type Identity struct{}

func (Tanh) activation()     {}
func (ReLU) activation()     {}
func (Identity) activation() {}

// Dense is a fully connected layer y = act(x @ W + b) with gradient
// accumulation. It caches the last forward batch for the backward pass; it
// is not safe for concurrent use.
type Dense struct {
	In, Out int
	W       *tensor.Mat // In x Out
	B       []float64
	Act     Activation

	DW *tensor.Mat
	DB []float64

	x, z, y *tensor.Mat
	dx      *tensor.Mat
	dz, dw  *tensor.Mat
	xt, wt  *tensor.Mat // xᵀ for the weight gradient, Wᵀ for the input gradient
}

// ensureMat is tensor.Ensure: reuse scratch when capacity allows, so
// steady-state training loops with a stable (or shrinking) batch size
// reach zero allocations after the first pass.
func ensureMat(m *tensor.Mat, r, c int) *tensor.Mat { return tensor.Ensure(m, r, c) }

// NewDense returns a Dense layer with fan-in-scaled Gaussian init of gain.
func NewDense(rng *rand.Rand, in, out int, act Activation, gain float64) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:   tensor.New(in, out),
		B:   make([]float64, out),
		Act: act,
		DW:  tensor.New(in, out),
		DB:  make([]float64, out),
	}
	d.W.Orthogonalish(rng, gain)
	return d
}

// Forward computes the layer output for a batch x (rows = samples).
func (d *Dense) Forward(x *tensor.Mat) *tensor.Mat {
	if x.C != d.In {
		panic(fmt.Sprintf("nn: Dense forward input dim %d, want %d", x.C, d.In))
	}
	d.x = x
	if d.z == nil || d.z.R != x.R {
		d.z = ensureMat(d.z, x.R, d.Out)
		d.y = ensureMat(d.y, x.R, d.Out)
	}
	tensor.MulInto(d.z, x, d.W)
	d.z.AddBias(d.B)
	applyActivation(d.Act, d.y.Data, d.z.Data)
	return d.y
}

// applyActivation computes y[i] = act(z[i]), dispatching on the kind once
// per batch instead of once per element: a per-element interface call was
// a top-ten sample site in campaign profiles.
func applyActivation(act Activation, y, z []float64) {
	y = y[:len(z)]
	switch act.(type) {
	case ReLU:
		// v > 0 ? v : +0 as a select on the bits, so the compiler emits a
		// conditional move: a branch on inputs positive about half the
		// time mispredicts. −0 and NaN both come out +0, as the branch
		// gives.
		for i, v := range z {
			y[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
		}
	case Tanh:
		for i, v := range z {
			y[i] = math.Tanh(v)
		}
	case Identity:
		copy(y, z)
	}
}

// activationDeriv computes dz[i] = dy[i] · act'(z[i], y[i]) with the same
// batch-level dispatch as applyActivation.
func activationDeriv(act Activation, dz, dy, z, y []float64) {
	dz = dz[:len(dy)]
	z = z[:len(dy)]
	y = y[:len(dy)]
	switch act.(type) {
	case ReLU:
		// z > 0 ? g : g·0, selected on the bits as in applyActivation.
		// g·0, not the constant 0: a negative g gives −0 and a NaN g
		// stays NaN, as g·act'(z) would. The two-mask form is what
		// compiles to a conditional move; assigning g·0 and then g under
		// an if compiles to a branch.
		for i, g := range dy {
			m := positive(z[i])
			dz[i] = math.Float64frombits(math.Float64bits(g)&m | math.Float64bits(g*0)&^m)
		}
	case Tanh:
		for i, g := range dy {
			dz[i] = g * (1 - float64(y[i]*y[i]))
		}
	case Identity:
		copy(dz, dy)
	}
}

// positive returns all ones if v > 0 and zero otherwise, for NaN too.
func positive(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// Backward takes dL/dy for the cached batch, accumulates dL/dW and dL/db
// into DW/DB, and returns dL/dx. The returned matrix is reused across
// calls.
func (d *Dense) Backward(dy *tensor.Mat) *tensor.Mat { return d.backward(dy, true) }

// backward is Backward; it computes dL/dx only if wantDx, and returns nil
// otherwise.
func (d *Dense) backward(dy *tensor.Mat, wantDx bool) *tensor.Mat {
	if d.x == nil {
		panic("nn: Dense backward before forward")
	}
	if dy.R != d.x.R || dy.C != d.Out {
		panic("nn: Dense backward shape mismatch")
	}
	// dz = dy * act'(z)
	d.dz = ensureMat(d.dz, dy.R, dy.C)
	dz := d.dz
	activationDeriv(d.Act, dz.Data, dy.Data, d.z.Data, d.y.Data)
	// Accumulate parameter grads. dW = xᵀ @ dz: ascending batch index,
	// zero entries of x skipped.
	if d.dw == nil {
		d.dw = tensor.New(d.In, d.Out)
	}
	d.xt = ensureMat(d.xt, d.In, dz.R)
	tensor.TransposeInto(d.xt, d.x)
	tensor.MulInto(d.dw, d.xt, dz)
	d.DW.Add(d.dw)
	for r := 0; r < dz.R; r++ {
		row := dz.Row(r)
		for j, v := range row {
			d.DB[j] += v
		}
	}
	if !wantDx {
		return nil
	}
	// dx = dz @ Wᵀ, zero entries of dz skipped.
	d.wt = ensureMat(d.wt, d.Out, d.In)
	tensor.TransposeInto(d.wt, d.W)
	d.dx = ensureMat(d.dx, dz.R, d.In)
	tensor.MulInto(d.dx, dz, d.wt)
	return d.dx
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.DW.Zero()
	for i := range d.DB {
		d.DB[i] = 0
	}
}

// Param is a flat view of one parameter block and its gradient.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// Params returns the layer's parameter blocks.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: "W", Data: d.W.Data, Grad: d.DW.Data},
		{Name: "b", Data: d.B, Grad: d.DB},
	}
}

// MLP is a stack of Dense layers.
type MLP struct {
	Layers []*Dense

	in1    *tensor.Mat // reusable 1-row input for Forward1
	out1   []float64   // reusable output buffer for Forward1
	params []Param     // lazily built, cached: the layer list is immutable
}

// NewMLP builds an MLP with the given layer sizes (sizes[0] = input dim,
// sizes[len-1] = output dim), hidden activation act, and a linear output
// layer initialized with outGain (small gains stabilize policy heads).
func NewMLP(rng *rand.Rand, sizes []int, act Activation, outGain float64) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i < len(sizes)-1; i++ {
		last := i == len(sizes)-2
		a := act
		gain := math.Sqrt(2)
		if last {
			a = Identity{}
			gain = outGain
		}
		m.Layers = append(m.Layers, NewDense(rng, sizes[i], sizes[i+1], a, gain))
	}
	return m
}

// InDim returns the input dimension.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim returns the output dimension.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Forward runs the batch through all layers.
func (m *MLP) Forward(x *tensor.Mat) *tensor.Mat {
	metricForward.Inc()
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h)
	}
	return h
}

// Forward1 evaluates a single input vector. The returned slice is owned by
// the MLP and reused by the next Forward1 call — copy it to retain.
func (m *MLP) Forward1(x []float64) []float64 {
	if m.in1 == nil || m.in1.C != len(x) {
		m.in1 = tensor.New(1, len(x))
	}
	copy(m.in1.Data, x)
	out := m.Forward(m.in1)
	if m.out1 == nil || len(m.out1) != len(out.Data) {
		m.out1 = make([]float64, len(out.Data))
	}
	copy(m.out1, out.Data)
	return m.out1
}

// Backward backpropagates dL/dout through all layers, accumulating
// parameter gradients. No caller reads dL/din, so the first layer does
// not compute it.
func (m *MLP) Backward(dout *tensor.Mat) {
	metricBackward.Inc()
	g := dout
	for i := len(m.Layers) - 1; i > 0; i-- {
		g = m.Layers[i].Backward(g)
	}
	m.Layers[0].backward(g, false)
}

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Params returns all parameter blocks. The slice is built once and cached:
// Param holds views into the layers' storage, which never moves, so the
// cached slice stays valid for the life of the network. Callers must not
// modify the slice itself (element Data/Grad contents are fair game).
func (m *MLP) Params() []Param {
	if m.params == nil {
		for i, l := range m.Layers {
			for _, p := range l.Params() {
				p.Name = fmt.Sprintf("layer%d.%s", i, p.Name)
				m.params = append(m.params, p)
			}
		}
	}
	return m.params
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// Weights flattens all parameters into one slice (for weight transfer in
// the distributed backends).
func (m *MLP) Weights() []float64 {
	out := make([]float64, 0, m.NumParams())
	for _, p := range m.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// SetWeights loads a slice produced by Weights.
func (m *MLP) SetWeights(w []float64) {
	if len(w) != m.NumParams() {
		panic(fmt.Sprintf("nn: SetWeights got %d values, want %d", len(w), m.NumParams()))
	}
	off := 0
	for _, p := range m.Params() {
		copy(p.Data, w[off:off+len(p.Data)])
		off += len(p.Data)
	}
}

// Polyak blends src into m: θ ← (1−τ)θ + τ·θ_src (target-network update).
func (m *MLP) Polyak(src *MLP, tau float64) {
	mp, sp := m.Params(), src.Params()
	if len(mp) != len(sp) {
		panic("nn: Polyak architecture mismatch")
	}
	for i := range mp {
		for j := range mp[i].Data {
			mp[i].Data[j] = float64((1-tau)*mp[i].Data[j]) + float64(tau*sp[i].Data[j])
		}
	}
}

// Clone returns a deep copy with zeroed gradients and fresh caches.
func (m *MLP) Clone() *MLP {
	out := &MLP{}
	for _, l := range m.Layers {
		nl := &Dense{
			In: l.In, Out: l.Out,
			W:   l.W.Clone(),
			B:   append([]float64(nil), l.B...),
			Act: l.Act,
			DW:  tensor.New(l.In, l.Out),
			DB:  make([]float64, l.Out),
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}
