package tensor

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestProductsAllocsZero pins the products at zero allocations once the
// packed scratch exists, at a batch (128×64×64) larger than any the
// campaign trains, and with them the transpose a weight gradient takes.
//
// testing.AllocsPerRun measures under GOMAXPROCS(1), so it cannot tell
// whether the contract holds off one P; this counts mallocs at the ambient
// GOMAXPROCS, which CI sets to 1 and 4 (go test -cpu 1,4 -run Allocs). Like
// AllocsPerRun it reports the integer average per pass, so a stray runtime
// allocation on another P does not fail it.
func TestProductsAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	a := randMatSparse(rng, 128, 64)
	w := randMatSparse(rng, 64, 64)
	dst := New(128, 64)
	dw := New(64, 64)
	at := New(64, 128)
	bt := MulIntoPacked(dst, a, w, nil) // warm up: sizes the scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const passes = 100
	for i := 0; i < passes; i++ {
		MulInto(dst, a, w)
		bt = MulIntoPacked(dst, a, w, bt)
		TransposeInto(at, a)
		bt = MulIntoPacked(dw, at, dst, bt)
		MulTransBInto(dst, a, w)
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / passes; n != 0 {
		t.Errorf("products: %d allocs per pass at GOMAXPROCS %d, want 0", n, runtime.GOMAXPROCS(0))
	}
}
