package nn

import (
	"math"
	"testing"
)

// activationInputs covers the values whose bits a vectorized or
// bit-select arm is most likely to get wrong: signed zeros, infinities,
// NaNs of both signs with two payloads, subnormals, the smallest normal
// and the largest finite value of both signs (the edges an integer
// compare on the bits would misorder) and ordinary values.
func activationInputs() []float64 {
	return []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000001),
		math.Float64frombits(0x7ff800000000beef), math.Float64frombits(0xfff800000000beef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.Float64frombits(0x0010000000000000), -math.Float64frombits(0x0010000000000000),
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, -2.75, 1e-300, -1e300, 19.5, -0.03125,
	}
}

// TestActivationArmsBits pins every output bit of applyActivation and
// activationDeriv against scalar references, for every pair of
// pre-activation z and upstream gradient g drawn from activationInputs.
func TestActivationArmsBits(t *testing.T) {
	in := activationInputs()
	n := len(in) * len(in)
	z, g := make([]float64, n), make([]float64, n)
	for i, a := range in {
		for j, b := range in {
			z[i*len(in)+j], g[i*len(in)+j] = a, b
		}
	}
	for _, tc := range []struct {
		name  string
		act   Activation
		fwd   func(z float64) float64
		deriv func(z, y, g float64) float64
	}{
		{"tanh", Tanh{}, math.Tanh, func(_, y, g float64) float64 { return g * (1 - float64(y*y)) }},
		{"relu", ReLU{},
			func(v float64) float64 {
				if v > 0 {
					return v
				}
				return 0
			},
			func(z, _, g float64) float64 {
				if z > 0 {
					return g
				}
				return g * 0
			}},
		{"identity", Identity{}, func(v float64) float64 { return v }, func(_, _, g float64) float64 { return g }},
	} {
		y := make([]float64, n)
		applyActivation(tc.act, y, z)
		for i := range z {
			if want := tc.fwd(z[i]); math.Float64bits(y[i]) != math.Float64bits(want) {
				t.Fatalf("%s forward(%v [%#x]) = %#x, want %#x", tc.name, z[i], math.Float64bits(z[i]), math.Float64bits(y[i]), math.Float64bits(want))
			}
		}
		dz := make([]float64, n)
		activationDeriv(tc.act, dz, g, z, y)
		for i := range z {
			if want := tc.deriv(z[i], y[i], g[i]); math.Float64bits(dz[i]) != math.Float64bits(want) {
				t.Fatalf("%s deriv(z=%#x, g=%#x) = %#x, want %#x", tc.name, math.Float64bits(z[i]), math.Float64bits(g[i]), math.Float64bits(dz[i]), math.Float64bits(want))
			}
		}
	}
}
