package tensor

import "math"

// rowAxpy adds arow[k]·b[k][j] to drow[j] for every k in idx, in order,
// and every j below p8, a multiple of 8; row k of b starts at b[k*stride].
// Each drow[j] is one chain of rounded multiplies and adds, two columns to
// an SSE2 instruction, sixteen columns (eight accumulators) to a tile and
// then eight. mulRows checks every length before the call.
//
//go:noescape
func rowAxpy(drow, arow, b []float64, idx []int32, p8, stride int)

// mulRows computes dst = a @ b on b as stored (row k of b contiguous); the
// caller has checked the shapes. Each output element is one serial chain:
// it starts at +0 and adds a[i][k]·b[k][j] in ascending k, skipping the
// zero entries of a, exactly as mulRowsPlain does. The columns in groups
// of eight go to rowAxpy, a row at a time; the p mod 8 left go to mulTail.
//
// A row's nonzero k are listed in chunks of len(idx), so the list costs a
// fixed 512 bytes of stack whatever the row length: the chains carry
// across chunks through drow, which rowAxpy loads and stores.
func mulRows(dst, a, b *Mat) {
	n, p := a.C, b.C
	if p8 := p &^ 7; p8 > 0 {
		var idx [128]int32
		for i := 0; i < a.R; i++ {
			arow := a.Data[i*n : (i+1)*n]
			drow := dst.Data[i*p : i*p+p8]
			clear(drow)
			for k0 := 0; k0 < n; k0 += len(idx) {
				// Every k is written and the count advances past the
				// nonzero ones only: a conditional move, no branch to
				// mispredict on a ReLU-sparse row.
				c := 0
				for k, av := range arow[k0:min(k0+len(idx), n)] {
					idx[c] = int32(k0 + k)
					if av != 0 {
						c++
					}
				}
				if c > 0 {
					rowAxpy(drow, arow, b.Data, idx[:c], p8, p)
				}
			}
		}
	}
	mulTail(dst, a, b)
}

// mulTail computes the p mod 8 columns of dst that rowAxpy's tiles leave.
// Rows go four at a time down one column, four chains on one strided read
// of b, while those columns of b hold no Inf or NaN: then the four rows add
// their zero terms instead of skipping them, which changes no bit, since
// each chain starts at +0 and never reaches −0, and s + (±0) = s. The rows
// left over (all of them if a tail column holds Inf or NaN) skip their
// zero terms and run three tail columns side by side, so a one-row head is
// as many chains as it has columns.
func mulTail(dst, a, b *Mat) {
	n, p := a.C, b.C
	p8 := p &^ 7
	if p8 == p {
		return
	}
	// Only the rows in fours add zero terms, so only they need the scan.
	// v - v is +0 for a finite v and NaN for Inf or NaN; OR-ing the bits
	// keeps it free of branches.
	var nonFinite uint64
	for j := p8; j < p && a.R >= 4; j++ {
		for o := j; o < len(b.Data); o += p {
			nonFinite |= math.Float64bits(b.Data[o] - b.Data[o])
		}
	}
	i := 0
	for ; nonFinite == 0 && i+3 < a.R; i += 4 {
		tail4(dst.Data[i*p:(i+4)*p], a.Data[i*n:(i+4)*n], b.Data, n, p)
	}
	for ; i < a.R; i++ {
		for j := p8; j < p; j += 3 {
			tailRow(dst.Data[i*p+j:(i+1)*p], a.Data[i*n:(i+1)*n], b.Data, p, j)
		}
	}
}

// tail4 computes the tail columns of four rows of dst, d4, from the four
// rows of a, a4, each n long, adding zero terms. Like tailRow it is a
// function of its own so that its loop keeps every value in a register.
func tail4(d4, a4, bd []float64, n, p int) {
	a0 := a4[:n]
	a1 := a4[n : 2*n][:len(a0)]
	a2 := a4[2*n : 3*n][:len(a0)]
	a3 := a4[3*n : 4*n][:len(a0)]
	for j := p &^ 7; j < p; j++ {
		var s0, s1, s2, s3 float64
		o := j // b[k][j]
		for k, av := range a0 {
			bv := bd[o]
			o += p
			s0 += float64(av * bv)
			s1 += float64(a1[k] * bv)
			s2 += float64(a2[k] * bv)
			s3 += float64(a3[k] * bv)
		}
		d4[j], d4[p+j], d4[2*p+j], d4[3*p+j] = s0, s1, s2, s3
	}
}

// tailRow computes up to three elements of a row of dst from column j of
// b on, side by side: d[c] = arow·b[:, j+c], a column past the last of b
// repeating the last. Zero entries of arow are skipped. It is a function
// of its own so that its loop keeps every value in a register.
func tailRow(d, arow, bd []float64, p, j int) {
	j1, j2 := min(j+1, p-1), min(j+2, p-1)
	var s0, s1, s2 float64
	for k, av := range arow {
		if av != 0 {
			o := k * p
			s0 += float64(av * bd[o+j])
			s1 += float64(av * bd[o+j1])
			s2 += float64(av * bd[o+j2])
		}
	}
	s := [3]float64{s0, s1, s2}
	copy(d, s[:])
}
