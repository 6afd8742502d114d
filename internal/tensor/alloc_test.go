package tensor

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestProductsAllocsZero pins a dense layer's three products at zero
// allocations, at a batch (128×64×64) larger than any the campaign trains,
// with the transposes the two gradients take, and a one-row product of a
// three-wide head.
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
	at, wt := New(64, 128), New(64, 64)
	x1, head, y1 := randMatSparse(rng, 1, 64), randMatSparse(rng, 64, 3), New(1, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const passes = 100
	for i := 0; i < passes; i++ {
		MulInto(dst, a, w)
		TransposeInto(at, a)
		MulInto(dw, at, dst)
		TransposeInto(wt, w)
		MulInto(dst, a, wt)
		MulInto(y1, x1, head)
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / passes; n != 0 {
		t.Errorf("products: %d allocs per pass at GOMAXPROCS %d, want 0", n, runtime.GOMAXPROCS(0))
	}
}
