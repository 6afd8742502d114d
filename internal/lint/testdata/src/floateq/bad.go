// Package floateq is a lint fixture for the float-eq rule.
package floateq

import "math"

// Converged compares two floats exactly.
func Converged(a, b float64) bool {
	return a == b // want finding
}

// IsUnit compares against a non-zero float literal.
func IsUnit(x float64) bool {
	return x != 1.0 // want finding
}

// SameNorm compares arithmetic results exactly.
func SameNorm(xs []float64) bool {
	return math.Sqrt(xs[0]) == xs[1]*2.0 // want finding
}

type sample struct{ Reward float64 }

// SameReward compares struct fields exactly; only the field's declared
// type says it is a float.
func SameReward(a, b sample) bool {
	return a.Reward == b.Reward // want finding
}

func mean(xs []float64) float64 { return xs[0] }

// SameMean compares function results exactly.
func SameMean(xs, ys []float64) bool {
	return mean(xs) == mean(ys) // want finding
}
