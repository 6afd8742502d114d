package nondetermrand

import (
	mrand "math/rand"
	"math/rand/v2"
)

// Coin draws from math/rand's global source through an aliased import
// that sits beside math/rand/v2.
func Coin() bool {
	return mrand.Intn(2) == 0 // want finding
}

// Draw takes a package-level draw as a function value.
func Draw() func() float64 {
	f := rand.Float64 // want finding
	return f
}
