// Package pareto implements the multi-objective ranking machinery behind
// step (e) of the paper's methodology: dominance tests, Pareto-front
// extraction (strict and ε-tolerant), non-dominated sorting into
// successive fronts and knee-point selection.
//
// Two contracts hold across the package. Order: Front, EpsilonFront and
// every front of NonDominatedSort list indices into the input in
// ascending order, so a result depends on the set of points and not on
// how it was computed. NaN: a NaN value is the worst value of its
// objective (see normalize): a diverged run loses that objective to every
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

// normalize maps a value so that smaller is always better. NaN (a
// diverged run's metric) becomes +Inf, the worst value of its objective
// whatever the direction: every comparison in this package goes through
// here, so dominance stays a strict partial order and the sort in
// NonDominatedSort a strict weak one. ±Inf keep their usual order.
func normalize(v float64, d Direction) float64 {
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
		av := normalize(a[i], dirs[i])
		bv := normalize(b[i], dirs[i])
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
		av := normalize(a[i], dirs[i])
		bv := normalize(b[i], dirs[i])
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
// input indices in ascending order, and NaN values rank as normalize
// defines them.
//
// The method is sort-and-place (ENS-BS, Zhang et al. 2015). Points are
// visited in lexicographic order of their normalized values, so a point
// can only be dominated by one visited before it, and a front that holds
// no dominator of a point rules out every later front too (each member of
// front k+1 has a dominator in front k, and dominance is transitive). The
// first such front is therefore found by binary search over the fronts
// built so far. With at most two objectives the most recently placed
// member of a front decides alone: the members are mutually non-dominated
// and were placed in lexicographic order, so the last one holds the
// front's best second objective — if it does not dominate the point, no
// member does. That bounds two objectives at O(n log n); from three on a
// front is walked member by member, O(m·n²) when all points share one
// front.
//
// Memory is four allocations whatever n: the normalized values, one
// integer scratch block, and the result (fronts are windows into one
// n-entry index buffer).
func NonDominatedSort(points []Point, dirs []Direction) [][]int {
	n, m := len(points), len(dirs)
	if n == 0 {
		return nil
	}
	vals := make([]float64, n*m)
	for i, p := range points {
		if len(p.Values) != m {
			panic(fmt.Sprintf("pareto: dimension mismatch %d/%d", len(p.Values), m))
		}
		for j, v := range p.Values {
			vals[i*m+j] = normalize(v, dirs[j])
		}
	}
	row := func(i int) []float64 { return vals[i*m : (i+1)*m] }

	scratch := make([]int, 4*n)
	order := scratch[:n]       // visiting order
	rank := scratch[n : 2*n]   // front of each point
	prev := scratch[2*n : 3*n] // member placed before it in the same front, or -1
	tail := scratch[3*n:]      // last member placed in each front
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := row(a), row(b)
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

	// holdsDominator reports whether front k holds a dominator of p.
	holdsDominator := func(k int, p []float64) bool {
		q := tail[k]
		if m <= 2 {
			return dominatesMin(row(q), p)
		}
		for ; q >= 0; q = prev[q] {
			if dominatesMin(row(q), p) {
				return true
			}
		}
		return false
	}
	nFronts := 0
	for _, i := range order {
		p := row(i)
		lo, hi := 0, nFronts
		for lo < hi {
			mid := (lo + hi) / 2
			if holdsDominator(mid, p) {
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

	// Counting sort by rank: walking the points in input order leaves each
	// front ascending. order and tail are free again and hold the fill
	// cursor and the end of each front.
	start, stop := order[:nFronts], tail[:nFronts]
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
			v := normalize(points[i].Values[d], dirs[d])
			lo[d] = math.Min(lo[d], v)
			hi[d] = math.Max(hi[d], v)
		}
	}
	norm := func(i, d int) float64 {
		v := normalize(points[i].Values[d], dirs[d])
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
