// Package pareto implements the multi-objective ranking machinery behind
// step (e) of the paper's methodology: dominance tests, Pareto-front
// extraction (strict and ε-tolerant), non-dominated sorting into
// successive fronts and knee-point selection.
//
// Two contracts hold across the package. Order: Front, EpsilonFront and
// every front of NonDominatedSort list indices into the input in
// ascending order, so a result depends on the set of points and not on
// how it was computed. NaN: a NaN value is the worst value of its
// objective (see Normalize): a diverged run loses that objective to every
// other value instead of tying with all of them, and dominance remains a
// strict partial order.
package pareto

import (
	"fmt"
	"math"
	"slices"
)

// Direction says whether an objective is minimized or maximized.
type Direction int

// Objective directions.
const (
	Minimize Direction = iota
	Maximize
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Maximize {
		return "max"
	}
	return "min"
}

// Point is one candidate with its objective values.
type Point struct {
	ID     int
	Values []float64
}

// Normalize maps a value so that smaller is always better. NaN (a
// diverged run's metric) becomes +Inf, the worst value of its objective
// whatever the direction: every comparison in this package goes through
// here, so dominance stays a strict partial order and the sort in
// NonDominatedSort a strict weak one. ±Inf keep their usual order.
func Normalize(v float64, d Direction) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	if d == Maximize {
		return -v
	}
	return v
}

// Dominates reports whether a dominates b under dirs: a is at least as
// good in every objective and strictly better in at least one.
func Dominates(a, b []float64, dirs []Direction) bool {
	if len(a) != len(b) || len(a) != len(dirs) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d/%d/%d", len(a), len(b), len(dirs)))
	}
	strictly := false
	for i := range a {
		av := Normalize(a[i], dirs[i])
		bv := Normalize(b[i], dirs[i])
		if av > bv {
			return false
		}
		if av < bv {
			strictly = true
		}
	}
	return strictly
}

// Front returns the indices (into points) of the non-dominated set, in
// input order.
func Front(points []Point, dirs []Direction) []int {
	var out []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q.Values, p.Values, dirs) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// EpsilonFront returns the indices of points that are not ε-dominated:
// q ε-dominates p only when q is better than p by more than a relative
// margin eps·max(|q_i|,|p_i|) in *every* objective. The result is always a
// superset of Front. The tolerance mirrors how a practitioner reads a
// measured Pareto plot: solutions within measurement noise of the front
// are kept (the paper's solutions 2 and 5 both report 201 kJ and both
// appear on its Figure 5 front).
func EpsilonFront(points []Point, dirs []Direction, eps float64) []int {
	if eps < 0 {
		panic("pareto: negative epsilon")
	}
	var out []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if epsDominates(q.Values, p.Values, dirs, eps) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// epsDominates reports whether a beats b by more than the relative margin
// eps·max(|a_i|,|b_i|) in every objective ("clearly dominates"). A point
// therefore survives an ε-front whenever it is within the noise margin of
// its dominator in at least one objective. An infinite (or NaN) value has
// no meaningful relative margin and is compared strictly.
func epsDominates(a, b []float64, dirs []Direction, eps float64) bool {
	for i := range a {
		av := Normalize(a[i], dirs[i])
		bv := Normalize(b[i], dirs[i])
		margin := eps * math.Max(math.Abs(av), math.Abs(bv))
		if math.IsInf(margin, 1) {
			margin = 0
		}
		if !(av < bv-margin) {
			return false
		}
	}
	return true
}

// NonDominatedSort partitions points into successive fronts: front 0 is
// the Pareto front, front 1 the front after removing front 0, and so on
// (the ranking NSGA-II calls non-dominated sorting). Every front lists
// input indices in ascending order, and NaN values rank as Normalize
// defines them. It normalizes the values into one row-major matrix and
// ranks that with NonDominatedSortRows.
func NonDominatedSort(points []Point, dirs []Direction) [][]int {
	n, m := len(points), len(dirs)
	vals := make([]float64, n*m)
	for i, p := range points {
		if len(p.Values) != m {
			panic(fmt.Sprintf("pareto: dimension mismatch %d/%d", len(p.Values), m))
		}
		for j, v := range p.Values {
			vals[i*m+j] = Normalize(v, dirs[j])
		}
	}
	return NonDominatedSortRows(vals, n, m)
}

// NonDominatedSortRows is NonDominatedSort over n points of m objectives
// whose values have already been through Normalize, row-major in vals
// (point i's are vals[i*m:(i+1)*m]). It does not modify vals.
//
// The method is sort-and-place (ENS-BS, Zhang et al. 2015). Points are
// visited in lexicographic order of their values, so a point can only be
// dominated by one visited before it, and a front that holds no dominator
// of a point rules out every later front too (each member of front k+1 has
// a dominator in front k, and dominance is transitive). The first such
// front is therefore found by binary search over the fronts built so far.
//
// The visiting order comes from a stable LSD radix sort, one byte per
// pass (a byte every key shares is skipped), on the top 32 of each first
// value's 64 order-preserving bits (orderKey: its sign, exponent and 20
// leading mantissa bits). Each run of equal keys — equal first values,
// or ones within a part in a million of each other — is then ordered by
// the whole row, whole-row ties in input order.
//
// With at most two objectives the most recently placed member of a front
// decides alone: the members are mutually non-dominated and were placed in
// lexicographic order, so the last one holds the front's best last
// objective, and its first objective is no worse than the point's. The
// search therefore reads two dense per-front values, that member's last
// and first objective: front k holds a dominator of p exactly when
// last[k] < p_last, or last[k] == p_last and first[k] < p_first. That
// bounds two objectives at O(n log n); from three on a front is walked
// member by member, O(m·n²) when all points share one front.
//
// Memory is at most five allocations whatever n and however many fronts:
// the sort keys, one integer scratch block (which also holds the front
// links from three objectives on), the per-front values of the
// two-objective rule, the n-entry index buffer every front is a window
// into, and the front headers.
func NonDominatedSortRows(vals []float64, n, m int) [][]int {
	if len(vals) != n*m {
		panic(fmt.Sprintf("pareto: %d values for %d points of %d objectives", len(vals), n, m))
	}
	if n == 0 {
		return nil
	}
	if m == 0 {
		// With no objective nothing dominates: one value all points share.
		vals, m = make([]float64, n), 1
	}

	const digits = 4 // bytes of a key, one radix pass each
	scratch := make([]int, 4*n+digits<<8)
	order, spare := scratch[:n], scratch[n:2*n] // radix double buffer
	rank := scratch[2*n : 3*n]                  // front of each point
	count := scratch[4*n:]                      // a histogram per key byte
	keys := make([]uint32, 2*n)
	sk, dk := keys[:n], keys[n:]
	for i := range order {
		k := uint32(orderKey(vals[i*m]) >> 32)
		sk[i], order[i] = k, i
		for d := 0; d < digits; d++ {
			count[d<<8|int(k>>(8*d)&0xff)]++
		}
	}
	for d := 0; d < digits; d++ {
		c, shift := count[d<<8:(d+1)<<8], 8*d
		if c[sk[0]>>shift&0xff] == n {
			continue // every key has this byte
		}
		at := 0
		for b, x := range c {
			c[b], at = at, at+x
		}
		for j, k := range sk {
			b := k >> shift & 0xff
			dk[c[b]], spare[c[b]] = k, order[j]
			c[b]++
		}
		sk, dk, order, spare = dk, sk, spare, order
	}
	for lo, hi := 0, 1; lo < n; lo, hi = hi, hi+1 {
		for hi < n && sk[hi] == sk[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b int) int {
				ra, rb := vals[a*m:(a+1)*m], vals[b*m:(b+1)*m]
				for j := range ra {
					if ra[j] < rb[j] {
						return -1
					}
					if ra[j] > rb[j] {
						return 1
					}
				}
				return a - b
			})
		}
	}

	nFronts := 0
	if m <= 2 {
		fv := make([]float64, 2*n)
		last, first := fv[:n], fv[n:] // of the member placed last in each front
		for _, i := range order {
			pf, pl := vals[i*m], vals[i*m+m-1]
			lo, hi := 0, nFronts
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				//lint:ignore float-eq a tie in the last objective is exact, as it is to Dominates
				if last[mid] < pl || last[mid] == pl && first[mid] < pf {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == nFronts {
				nFronts++
			}
			rank[i], last[lo], first[lo] = lo, pl, pf
		}
	} else {
		prev := scratch[3*n : 4*n] // member placed before it in the same front, or -1
		tail := spare              // last member placed in each front
		for _, i := range order {
			p := vals[i*m : (i+1)*m]
			lo, hi := 0, nFronts
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				q := tail[mid]
				for q >= 0 && !dominatesMin(vals[q*m:(q+1)*m], p) {
					q = prev[q]
				}
				if q >= 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == nFronts {
				tail[lo] = -1
				nFronts++
			}
			rank[i], prev[i], tail[lo] = lo, tail[lo], i
		}
	}

	// Counting sort by rank: walking the points in input order leaves each
	// front ascending. order and spare are free again and hold the fill
	// cursor and the end of each front.
	start, stop := order[:nFronts], spare[:nFronts]
	clear(stop)
	for _, k := range rank {
		stop[k]++
	}
	for k, at := 0, 0; k < nFronts; k++ {
		start[k] = at
		at += stop[k]
		stop[k] = at
	}
	indices := make([]int, n)
	fronts := make([][]int, nFronts)
	for k := range fronts {
		fronts[k] = indices[start[k]:stop[k]:stop[k]]
	}
	for i, k := range rank {
		indices[start[k]] = i
		start[k]++
	}
	return fronts
}

// orderKey maps a normalized value to bits that sort as unsigned integers
// in the order < sorts the values: the sign bit is flipped for a positive
// value, every bit for a negative one. -0 becomes +0 first, because <
// holds them equal; NaN never gets here (Normalize made it +Inf). Any
// leading bits of a key sort the values too, ties aside.
func orderKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// dominatesMin is Dominates over two rows of already normalized values.
func dominatesMin(a, b []float64) bool {
	strictly := false
	for j, av := range a {
		if av > b[j] {
			return false
		}
		if av < b[j] {
			strictly = true
		}
	}
	return strictly
}

// Knee returns the index (into points) of the knee point of the Pareto
// front: the front member with maximum distance to the line joining the
// front's extreme points, a common "balanced trade-off" pick. It returns
// -1 for empty input; for fronts of one or two points it returns the
// first.
func Knee(points []Point, dirs []Direction) int {
	front := Front(points, dirs)
	if len(front) == 0 {
		return -1
	}
	if len(front) <= 2 {
		return front[0]
	}
	// Normalize objectives to [0,1] minimization.
	nObj := len(dirs)
	lo := make([]float64, nObj)
	hi := make([]float64, nObj)
	for d := 0; d < nObj; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
		for _, i := range front {
			v := Normalize(points[i].Values[d], dirs[d])
			lo[d] = math.Min(lo[d], v)
			hi[d] = math.Max(hi[d], v)
		}
	}
	norm := func(i, d int) float64 {
		v := Normalize(points[i].Values[d], dirs[d])
		if hi[d] <= lo[d] { // degenerate dimension (hi >= lo by construction)
			return 0
		}
		return (v - lo[d]) / (hi[d] - lo[d])
	}
	// Distance from the ideal point (0,...,0); the knee is the closest.
	best, bestDist := front[0], math.Inf(1)
	for _, i := range front {
		s := 0.0
		for d := 0; d < nObj; d++ {
			v := norm(i, d)
			s += v * v
		}
		if s < bestDist {
			bestDist = s
			best = i
		}
	}
	return best
}
