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
	k := a.next()
	for i, p := range a.params {
		adamUpdate(p.Data, p.Grad, a.m[i], a.v[i], &k)
	}
}

// next advances the step count and returns the step's scalars.
func (a *Adam) next() adamCoef {
	a.t++
	return adamCoef{
		b1: a.Beta1, c1: 1 - a.Beta1,
		b2: a.Beta2, c2: 1 - a.Beta2,
		bc1: 1 - math.Pow(a.Beta1, float64(a.t)),
		bc2: 1 - math.Pow(a.Beta2, float64(a.t)),
		lr:  a.LR, eps: a.Eps,
	}
}

// adamCoef is one Adam step's scalars, in the order the amd64 kernel
// reads them.
type adamCoef struct {
	b1, c1   float64 // β1, 1−β1
	b2, c2   float64 // β2, 1−β2
	bc1, bc2 float64 // bias corrections 1−β1^t, 1−β2^t
	lr, eps  float64
}

// adamLoop applies one Adam step to every element of data, one element at
// a time; grad, m and v are at least as long as data. It is the kernel off
// amd64, the amd64 kernel's odd last element, and the tests' reference.
// Every product is converted before it is added, so no architecture fuses
// a multiply-add, and each operation keeps the operand order the Go
// compiler emits on amd64, which the amd64 kernel copies: β1·m + (1−β1)·g
// adds into (1−β1)·g, (1−β2)·g·g associates left, and the update is
// (lr·m̂)/(√v̂ + ε). 1/bc1 is not folded into a multiply: that rounds
// differently.
func adamLoop(data, grad, m, v []float64, k *adamCoef) {
	grad, m, v = grad[:len(data)], m[:len(data)], v[:len(data)]
	b1, c1, b2, c2 := k.b1, k.c1, k.b2, k.c2
	bc1, bc2, lr, eps := k.bc1, k.bc2, k.lr, k.eps
	for j, g := range grad {
		m[j] = float64(b1*m[j]) + float64(c1*g)
		v[j] = float64(b2*v[j]) + float64(float64(c2*g)*g)
		mHat := m[j] / bc1
		vHat := v[j] / bc2
		data[j] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// GradNorm returns the global L2 norm of all gradients in params.
func GradNorm(params []Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			s += float64(g * g)
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
