//go:build !amd64

package tensor

// mulRows computes dst = a @ b with mulRowsPlain's ikj loop, whose
// multiply-adds are written fusion-free; the caller has checked the
// shapes.
func mulRows(dst, a, b *Mat) { mulRowsPlain(dst, a, b) }
