//go:build !amd64

package nn

// adamUpdate applies one Adam step to data with adamLoop.
func adamUpdate(data, grad, m, v []float64, k *adamCoef) { adamLoop(data, grad, m, v, k) }
