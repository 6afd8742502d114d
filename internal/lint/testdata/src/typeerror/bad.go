// Package typeerror does not type-check. Its exact float comparison on a
// struct field is only visible to a rule that has the types, so an engine
// that skipped packages it could not check would report this tree clean;
// the lint run must fail instead, naming the package.
package typeerror

type point struct{ X float64 }

// SameX compares float fields exactly.
func SameX(a, b point) bool {
	return a.X == b.X
}

// Total returns a string where it declares an int.
func Total(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return "total"
}
