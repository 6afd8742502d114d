package floateq

import "math"

// ApproxConverged uses a tolerance, the sanctioned comparison.
func ApproxConverged(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9
}

// CountMatches compares integers, which is exact by nature: allowed.
func CountMatches(a, b int) bool {
	return a == b
}

// NameMatches compares strings: allowed.
func NameMatches(a, b string) bool {
	return a != b
}

// IsZero compares against the constant zero, the documented exemption:
// a zero test is a sentinel ("unset", "skip this term"), not a comparison
// of two computed values.
func IsZero(x float64) bool {
	return x != 0.0
}

// Unset tests a float field against the untyped constant 0: exempt too.
func Unset(s sample) bool {
	return s.Reward == 0
}
