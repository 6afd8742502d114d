package nn

// adamPairs applies one Adam step to the first len(data)&^1 elements of
// data, two to an SSE2 instruction; grad, m and v are as long as data.
// Each lane runs adamLoop's operations in adamLoop's operand order, so
// every bit, a NaN's payload included, comes out as adamLoop's.
//
//go:noescape
func adamPairs(data, grad, m, v []float64, k *adamCoef)

// adamUpdate applies one Adam step to data: the pairs in adamPairs, an odd
// last element in adamLoop.
func adamUpdate(data, grad, m, v []float64, k *adamCoef) {
	n := len(data)
	grad, m, v = grad[:n], m[:n], v[:n]
	adamPairs(data, grad, m, v, k)
	if e := n &^ 1; e < n {
		adamLoop(data[e:], grad[e:], m[e:], v[e:], k)
	}
}
