package nn

import (
	"testing"

	"rldecide/internal/mathx"
	"rldecide/internal/tensor"
)

// TestForwardBackwardAllocsZero pins steady-state zero allocation for the
// training kernels at the policy-network shapes the campaign trains
// (batch 32, obs 7 -> 64 -> 64 -> 3 actions).
func TestForwardBackwardAllocsZero(t *testing.T) {
	rng := mathx.NewRand(1)
	m := NewMLP(rng, []int{7, 64, 64, 3}, Tanh{}, 0.01)
	x := tensor.New(32, 7)
	for i := range x.Data {
		x.Data[i] = rng.Float64() - 0.5
	}
	dout := tensor.New(32, 3)
	for i := range dout.Data {
		dout.Data[i] = rng.Float64() - 0.5
	}
	// Warm up: first pass sizes the layer scratch to the batch.
	m.ZeroGrad()
	m.Forward(x)
	m.Backward(dout)

	if allocs := testing.AllocsPerRun(100, func() {
		m.Forward(x)
	}); allocs != 0 {
		t.Errorf("Forward: %.1f allocs per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.ZeroGrad()
		m.Forward(x)
		m.Backward(dout)
	}); allocs != 0 {
		t.Errorf("Forward+Backward: %.1f allocs per pass, want 0", allocs)
	}
}

// TestForward1AllocsZero pins the single-observation action path (one call
// per environment step during collection).
func TestForward1AllocsZero(t *testing.T) {
	rng := mathx.NewRand(2)
	m := NewMLP(rng, []int{7, 64, 64, 3}, Tanh{}, 0.01)
	obs := make([]float64, 7)
	for i := range obs {
		obs[i] = rng.Float64() - 0.5
	}
	m.Forward1(obs) // warm up
	if allocs := testing.AllocsPerRun(100, func() {
		m.Forward1(obs)
	}); allocs != 0 {
		t.Errorf("Forward1: %.1f allocs per call, want 0", allocs)
	}
}
