package nn

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rldecide/internal/tensor"
)

func newRng(a, b uint64) *rand.Rand { return rand.New(rand.NewPCG(a, b)) }

// scalarLoss is 0.5*sum(out^2) with gradient dL/dout = out; used for
// finite-difference checks.
func scalarLoss(out *tensor.Mat) (float64, *tensor.Mat) {
	l := 0.0
	g := tensor.New(out.R, out.C)
	for i, v := range out.Data {
		l += 0.5 * v * v
		g.Data[i] = v
	}
	return l, g
}

func TestMLPGradientsMatchFiniteDifferences(t *testing.T) {
	rng := newRng(1, 2)
	m := NewMLP(rng, []int{4, 8, 3}, Tanh{}, 1.0)
	x := tensor.New(5, 4)
	x.Randomize(rng, 1)

	m.ZeroGrad()
	out := m.Forward(x)
	_, dout := scalarLoss(out)
	m.Backward(dout)

	const eps = 1e-6
	for _, p := range m.Params() {
		for j := 0; j < len(p.Data); j += 7 { // spot-check every 7th weight
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lp, _ := scalarLoss(m.Forward(x))
			p.Data[j] = orig - eps
			lm, _ := scalarLoss(m.Forward(x))
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad[j]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, j, analytic, numeric)
			}
		}
	}
}

func TestMLPGradientsReLU(t *testing.T) {
	rng := newRng(3, 4)
	m := NewMLP(rng, []int{3, 6, 2}, ReLU{}, 1.0)
	x := tensor.New(4, 3)
	x.Randomize(rng, 1)
	m.ZeroGrad()
	out := m.Forward(x)
	_, dout := scalarLoss(out)
	m.Backward(dout)
	const eps = 1e-6
	p := m.Params()[0]
	for j := 0; j < len(p.Data); j += 3 {
		orig := p.Data[j]
		p.Data[j] = orig + eps
		lp, _ := scalarLoss(m.Forward(x))
		p.Data[j] = orig - eps
		lm, _ := scalarLoss(m.Forward(x))
		p.Data[j] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-p.Grad[j]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("W[%d]: analytic %g vs numeric %g", j, p.Grad[j], numeric)
		}
	}
}

func TestInputGradient(t *testing.T) {
	rng := newRng(5, 6)
	m := NewMLP(rng, []int{3, 5, 2}, Tanh{}, 1.0)
	xdata := []float64{0.3, -0.2, 0.7}
	x := tensor.FromSlice(1, 3, append([]float64(nil), xdata...))
	m.ZeroGrad()
	out := m.Forward(x)
	_, dout := scalarLoss(out)
	dx := m.Backward(dout)
	const eps = 1e-6
	for j := range xdata {
		xp := append([]float64(nil), xdata...)
		xp[j] += eps
		lp, _ := scalarLoss(m.Forward(tensor.FromSlice(1, 3, xp)))
		xm := append([]float64(nil), xdata...)
		xm[j] -= eps
		lm, _ := scalarLoss(m.Forward(tensor.FromSlice(1, 3, xm)))
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.At(0, j)) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("dx[%d]: analytic %g vs numeric %g", j, dx.At(0, j), numeric)
		}
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	// Minimize 0.5*||w - target||^2 with Adam; must converge.
	target := []float64{1, -2, 3}
	w := []float64{0, 0, 0}
	g := []float64{0, 0, 0}
	params := []Param{{Name: "w", Data: w, Grad: g}}
	opt := NewAdam(params, 0.1)
	for it := 0; it < 500; it++ {
		for i := range w {
			g[i] = w[i] - target[i]
		}
		opt.Step()
	}
	for i := range w {
		if math.Abs(w[i]-target[i]) > 1e-2 {
			t.Fatalf("Adam failed to converge: w=%v", w)
		}
	}
}

func TestMLPTrainsXOR(t *testing.T) {
	rng := newRng(7, 8)
	m := NewMLP(rng, []int{2, 16, 1}, Tanh{}, 1.0)
	opt := NewAdam(m.Params(), 0.02)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	batch := tensor.New(4, 2)
	for i, x := range xs {
		copy(batch.Row(i), x)
	}
	var loss float64
	for it := 0; it < 2000; it++ {
		m.ZeroGrad()
		out := m.Forward(batch)
		dout := tensor.New(4, 1)
		loss = 0
		for i := range ys {
			d := out.At(i, 0) - ys[i]
			loss += 0.5 * d * d
			dout.Set(i, 0, d)
		}
		m.Backward(dout)
		opt.Step()
	}
	if loss > 0.01 {
		t.Fatalf("XOR not learned, loss=%v", loss)
	}
}

func TestClipGrads(t *testing.T) {
	g := []float64{3, 4}
	p := []Param{{Data: []float64{0, 0}, Grad: g}}
	pre := ClipGrads(p, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v want 5", pre)
	}
	if n := GradNorm(p); math.Abs(n-1) > 1e-12 {
		t.Fatalf("post-clip norm %v want 1", n)
	}
	// Below threshold: unchanged.
	g2 := []float64{0.3, 0.4}
	p2 := []Param{{Data: []float64{0, 0}, Grad: g2}}
	ClipGrads(p2, 1)
	if g2[0] != 0.3 {
		t.Fatal("clip should not rescale small grads")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	rng := newRng(9, 10)
	a := NewMLP(rng, []int{3, 4, 2}, Tanh{}, 0.01)
	b := NewMLP(rng, []int{3, 4, 2}, Tanh{}, 0.01)
	w := a.Weights()
	if len(w) != a.NumParams() {
		t.Fatal("Weights length mismatch")
	}
	b.SetWeights(w)
	x := []float64{0.1, 0.2, 0.3}
	oa, ob := a.Forward1(x), b.Forward1(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("SetWeights did not replicate the network")
		}
	}
	c := a.Clone()
	oc := c.Forward1(x)
	for i := range oa {
		if oa[i] != oc[i] {
			t.Fatal("Clone did not replicate the network")
		}
	}
}

func TestPolyak(t *testing.T) {
	rng := newRng(11, 12)
	a := NewMLP(rng, []int{2, 3, 1}, Tanh{}, 1)
	b := NewMLP(rng, []int{2, 3, 1}, Tanh{}, 1)
	wantMix := 0.25*b.Weights()[0] + 0.75*a.Weights()[0]
	a.Polyak(b, 0.25)
	if math.Abs(a.Weights()[0]-wantMix) > 1e-12 {
		t.Fatalf("Polyak mix wrong: %v want %v", a.Weights()[0], wantMix)
	}
	a.Polyak(b, 1)
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("Polyak(1) should copy")
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [4]int8) bool {
		logits := make([]float64, 4)
		for i, v := range raw {
			logits[i] = float64(v) / 16
		}
		p := Softmax(logits, nil)
		sum := 0.0
		for _, pi := range p {
			if pi < 0 || pi > 1 {
				return false
			}
			sum += pi
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// LogSoftmax consistency.
		lp := LogSoftmax(logits, nil)
		for i := range p {
			if math.Abs(math.Exp(lp[i])-p[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 1002}, nil)
	if math.IsNaN(p[0]) || math.Abs(p[0]+p[1]+p[2]-1) > 1e-9 {
		t.Fatalf("softmax overflowed: %v", p)
	}
}

func TestCategoricalSampleDistribution(t *testing.T) {
	rng := newRng(13, 14)
	logits := []float64{math.Log(0.7), math.Log(0.2), math.Log(0.1)}
	counts := [3]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[CategoricalSample(rng, logits)]++
	}
	want := []float64{0.7, 0.2, 0.1}
	for i, w := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.02 {
			t.Fatalf("action %d frequency %v want %v", i, got, w)
		}
	}
}

func TestCategoricalEntropy(t *testing.T) {
	// Uniform over 3: entropy = ln 3.
	h := CategoricalEntropy([]float64{0, 0, 0})
	if math.Abs(h-math.Log(3)) > 1e-9 {
		t.Fatalf("uniform entropy %v want %v", h, math.Log(3))
	}
	// Near-deterministic: entropy near 0.
	h = CategoricalEntropy([]float64{100, 0, 0})
	if h > 1e-9 {
		t.Fatalf("deterministic entropy %v", h)
	}
	if lp := CategoricalLogProb([]float64{0, 0, 0}, 1); math.Abs(lp+math.Log(3)) > 1e-9 {
		t.Fatalf("logprob %v", lp)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax([]float64{5}) != 0 {
		t.Fatal("Argmax single wrong")
	}
}

func TestDensePanics(t *testing.T) {
	rng := newRng(17, 18)
	d := NewDense(rng, 3, 2, Tanh{}, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("backward before forward should panic")
			}
		}()
		d.Backward(tensor.New(1, 2))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong input dim should panic")
			}
		}()
		d.Forward(tensor.New(1, 4))
	}()
}

func BenchmarkMLPForward(b *testing.B) {
	rng := newRng(1, 1)
	m := NewMLP(rng, []int{10, 64, 64, 3}, Tanh{}, 0.01)
	x := tensor.New(64, 10)
	x.Randomize(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	rng := newRng(1, 1)
	m := NewMLP(rng, []int{10, 64, 64, 3}, Tanh{}, 0.01)
	x := tensor.New(64, 10)
	x.Randomize(rng, 1)
	dout := tensor.New(64, 3)
	dout.Fill(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		m.Forward(x)
		m.Backward(dout)
	}
}
