package nn

import "math"

// Adam implements the Adam optimizer over a set of Param blocks.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	params []Param
	m, v   [][]float64
	t      int
}

// NewAdam returns an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8) over params.
func NewAdam(params []Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Data))
		a.v[i] = make([]float64, len(p.Data))
	}
	return a
}

// Step applies one Adam update using the gradients currently accumulated in
// the parameter blocks, then leaves the gradients untouched (callers zero
// them between minibatches).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			p.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// GradNorm returns the global L2 norm of all gradients in params.
func GradNorm(params []Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGrads rescales all gradients so the global norm is at most maxNorm,
// returning the pre-clip norm.
func ClipGrads(params []Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] *= scale
			}
		}
	}
	return norm
}
