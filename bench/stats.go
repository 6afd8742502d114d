package main

import (
	"math"
	"sort"
	"time"

	"rldecide/internal/power"
)

// sortedKeys returns the keys of m in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMedian runs f in batches of inner calls until at least minBatches
// batches and minTotal of wall time have been spent, and returns the
// median per-call duration. Probes use it so that a nanosecond-scale call
// is timed over a batch long enough for the clock to resolve.
func timeMedian(inner, minBatches int, minTotal time.Duration, f func()) time.Duration {
	var per []float64
	begin := now()
	for len(per) < minBatches || now()-begin < minTotal {
		t0 := now()
		for i := 0; i < inner; i++ {
			f()
		}
		per = append(per, float64(now()-t0)/float64(inner))
	}
	return time.Duration(median(per))
}

// clock is the harness's one time source: internal/power's Stopwatch, the
// repository's sanctioned wall-clock seam (its linter forbids time.Now
// anywhere else outside obs and cmd).
var clock = power.StartStopwatch()

// now is the time since the process began.
func now() time.Duration { return clock.Elapsed() }
