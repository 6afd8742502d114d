package tensor

import "sync"

// mulParallel fans a product's rows out per call.
func mulParallel(rows int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (rows + 3) / 4
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// addAsync spawns a fire-and-forget goroutine.
func addAsync(dst, a []float64) {
	go func() {
		for i := range dst {
			dst[i] += a[i]
		}
	}()
}
