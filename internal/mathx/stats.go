package mathx

import (
	"math"
	"math/rand/v2"
	"sort"
)

// ApproxEq reports whether a and b are equal within tol, absolutely for
// small magnitudes and relatively for large ones:
//
//	|a-b| <= tol * max(1, |a|, |b|)
//
// It is the comparison the float-eq lint rule points at: exact ==/!= on
// floats breaks under any arithmetic reordering. NaNs never compare equal;
// equal infinities do.
func ApproxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		//lint:ignore float-eq infinities carry no rounding error; exact compare is the definition
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Within reports whether a and b differ by at most eps in absolute terms.
func Within(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= eps
}

// Clip bounds x to [lo, hi].
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs, or 0 for fewer than
// two samples.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be >= 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// EWMA is an exponentially weighted moving average. Construct with
// NewEWMA; the first Push initializes the average.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("mathx: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Push adds an observation and returns the updated average.
func (e *EWMA) Push(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// BootstrapCI estimates a two-sided confidence interval for the mean of xs
// by nonparametric bootstrap with n resamples at the given confidence
// level (e.g. 0.95). The rng makes the estimate deterministic. It panics
// on an empty slice.
func BootstrapCI(rng *rand.Rand, xs []float64, n int, level float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("mathx: BootstrapCI of empty slice")
	}
	if n <= 0 {
		n = 1000
	}
	means := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < len(xs); j++ {
			s += xs[rng.IntN(len(xs))]
		}
		means[i] = s / float64(len(xs))
	}
	tail := (1 - level) / 2
	return Percentile(means, tail), Percentile(means, 1-tail)
}
