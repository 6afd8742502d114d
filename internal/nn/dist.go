package nn

import (
	"math"
	"math/rand/v2"
)

// Softmax writes the softmax of logits into dst (allocating when nil) and
// returns dst, using the max-subtraction trick for stability.
func Softmax(logits []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(logits))
	}
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - mx)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// LogSoftmax writes log-softmax of logits into dst and returns dst.
func LogSoftmax(logits []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(logits))
	}
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	sum := 0.0
	for _, v := range logits {
		sum += math.Exp(v - mx)
	}
	lse := mx + math.Log(sum)
	for i, v := range logits {
		dst[i] = v - lse
	}
	return dst
}

// logitsMaxExpSum returns max(logits) and Σ exp(v−max) — the two reduction
// passes shared by the allocation-free categorical helpers below. Each
// helper recomputes exp(v−max) per element instead of materializing a
// probability buffer; the arithmetic per element is unchanged, so results
// (and sampled action sequences) are bit-identical to the buffered forms.
func logitsMaxExpSum(logits []float64) (mx, sum float64) {
	mx = logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	for _, v := range logits {
		sum += math.Exp(v - mx)
	}
	return mx, sum
}

// CategoricalSample draws an action index from softmax(logits).
func CategoricalSample(rng *rand.Rand, logits []float64) int {
	mx, sum := logitsMaxExpSum(logits)
	u := rng.Float64()
	acc := 0.0
	for i, v := range logits {
		acc += math.Exp(v-mx) / sum
		if u <= acc {
			return i
		}
	}
	return len(logits) - 1
}

// CategoricalLogProb returns log π(a) under softmax(logits).
func CategoricalLogProb(logits []float64, a int) float64 {
	mx, sum := logitsMaxExpSum(logits)
	return logits[a] - (mx + math.Log(sum))
}

// CategoricalEntropy returns the entropy of softmax(logits) in nats.
func CategoricalEntropy(logits []float64) float64 {
	mx, sum := logitsMaxExpSum(logits)
	lse := mx + math.Log(sum)
	h := 0.0
	for _, v := range logits {
		l := v - lse
		h -= math.Exp(l) * l
	}
	return h
}

// Argmax returns the index of the largest element.
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
