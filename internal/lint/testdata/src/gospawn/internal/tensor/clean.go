package tensor

// A spawn that carries a go-spawn suppression with a reason stays silent.
var tasks = make(chan func(), 16)

func startPool(n int) {
	for i := 0; i < n; i++ {
		//lint:ignore go-spawn persistent pool workers, spawned once at startup
		go func() {
			for fn := range tasks {
				fn()
			}
		}()
	}
}

// serialAdd has no goroutines at all.
func serialAdd(dst, a []float64) {
	for i := range dst {
		dst[i] += a[i]
	}
}
