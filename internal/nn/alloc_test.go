package nn

import (
	"testing"

	"rldecide/internal/mathx"
	"rldecide/internal/tensor"
)

// TestForwardBackwardAllocsZero pins steady-state zero allocation for the
// training kernels at the network shapes the campaign trains (obs 7 -> 64
// -> 64 -> 3 actions): PPO's Tanh networks at batch 32 and SAC's ReLU
// networks at its default batch of 128.
func TestForwardBackwardAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		act   Activation
		batch int
	}{{Tanh{}, 32}, {ReLU{}, 128}} {
		rng := mathx.NewRand(1)
		m := NewMLP(rng, []int{7, 64, 64, 3}, tc.act, 0.01)
		x, dout := tensor.New(tc.batch, 7), tensor.New(tc.batch, 3)
		for i := range x.Data {
			x.Data[i] = float64(rng.Float64()) - 0.5
		}
		for i := range dout.Data {
			dout.Data[i] = float64(rng.Float64()) - 0.5
		}
		// Warm up: first pass sizes the layer scratch to the batch.
		m.ZeroGrad()
		m.Forward(x)
		m.Backward(dout)

		if allocs := testing.AllocsPerRun(100, func() {
			m.Forward(x)
		}); allocs != 0 {
			t.Errorf("%T Forward: %.1f allocs per call, want 0", tc.act, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			m.ZeroGrad()
			m.Forward(x)
			m.Backward(dout)
		}); allocs != 0 {
			t.Errorf("%T Forward+Backward: %.1f allocs per pass, want 0", tc.act, allocs)
		}
	}
}

// TestAdamStepAllocsZero pins a zero-allocation Adam step over a
// campaign-shaped network's parameters.
func TestAdamStepAllocsZero(t *testing.T) {
	m := NewMLP(mathx.NewRand(3), []int{7, 64, 64, 3}, ReLU{}, 0.01)
	opt := NewAdam(m.Params(), 3e-4)
	if allocs := testing.AllocsPerRun(100, opt.Step); allocs != 0 {
		t.Errorf("Adam.Step: %.1f allocs per step, want 0", allocs)
	}
}

// TestForward1AllocsZero pins the single-observation action path (one call
// per environment step during collection).
func TestForward1AllocsZero(t *testing.T) {
	rng := mathx.NewRand(2)
	m := NewMLP(rng, []int{7, 64, 64, 3}, Tanh{}, 0.01)
	obs := make([]float64, 7)
	for i := range obs {
		obs[i] = float64(rng.Float64()) - 0.5
	}
	m.Forward1(obs) // warm up
	if allocs := testing.AllocsPerRun(100, func() {
		m.Forward1(obs)
	}); allocs != 0 {
		t.Errorf("Forward1: %.1f allocs per call, want 0", allocs)
	}
}
