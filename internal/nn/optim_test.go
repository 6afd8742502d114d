package nn

import (
	"math"
	"testing"
)

// TestAdamKernelBits runs Adam.Step's kernel (adamUpdate: SSE2 pairs and a
// Go tail on amd64, the Go loop elsewhere) against adamLoop, one element at
// a time, for several steps so that both bias corrections vary, and
// compares every bit of the parameters and both moments after each step.
// Gradients, parameters and the moment state hold every activationInputs
// value: signed zeros, infinities, subnormals and NaNs of both signs with
// two payloads. The first S·S elements pair every gradient with every m,
// and the next S·S every gradient with every v, so each add meets two NaN
// operands with different payloads, which pins the operand order.
func TestAdamKernelBits(t *testing.T) {
	sp := activationInputs()
	S := len(sp)
	for _, n := range []int{1, 2, 3, 7, 64, 65, 2*S*S + 1, 4096} {
		rng := newRng(uint64(n), 5)
		draw := func(i, salt int) float64 {
			if rng.IntN(3) == 0 {
				return sp[(i*salt+rng.IntN(S))%S]
			}
			return rng.NormFloat64()
		}
		data, grad := make([]float64, n), make([]float64, n)
		m, v := make([]float64, n), make([]float64, n)
		for i := range data {
			data[i], m[i], v[i] = draw(i, 3), draw(i, 5), math.Abs(draw(i, 7))
			if i < S*S {
				m[i] = sp[i/S]
			} else if i < 2*S*S {
				v[i] = sp[(i-S*S)/S]
			}
		}
		refData := append([]float64(nil), data...)
		refM, refV := append([]float64(nil), m...), append([]float64(nil), v...)
		a := &Adam{LR: 3e-4, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
		ref := *a
		for step := 1; step <= 6; step++ {
			for i := range grad {
				grad[i] = draw(i, step)
				if i < 2*S*S {
					grad[i] = sp[i%S]
				}
			}
			k, rk := a.next(), ref.next()
			adamUpdate(data, grad, m, v, &k)
			adamLoop(refData, grad, refM, refV, &rk)
			for _, c := range []struct {
				name     string
				got, ref []float64
			}{{"param", data, refData}, {"m", m, refM}, {"v", v, refV}} {
				for i := range c.got {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.ref[i]) {
						t.Fatalf("n=%d step %d: %s[%d] = %#x, want %#x (g=%#x)", n, step, c.name, i,
							math.Float64bits(c.got[i]), math.Float64bits(c.ref[i]), math.Float64bits(grad[i]))
					}
				}
			}
		}
	}
}

// BenchmarkAdamStep times one Adam step over the parameters of a
// campaign-shaped network (7 -> 64 -> 64 -> 3, 4 995 parameters).
func BenchmarkAdamStep(b *testing.B) {
	rng := newRng(1, 1)
	m := NewMLP(rng, []int{7, 64, 64, 3}, ReLU{}, 0.01)
	for _, p := range m.Params() {
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64()
		}
	}
	opt := NewAdam(m.Params(), 3e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step()
	}
}
