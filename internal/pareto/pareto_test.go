package pareto

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

var minmin = []Direction{Minimize, Minimize}

func pts(vals ...[2]float64) []Point {
	out := make([]Point, len(vals))
	for i, v := range vals {
		out[i] = Point{ID: i, Values: []float64{v[0], v[1]}}
	}
	return out
}

func TestDominates(t *testing.T) {
	if !Dominates([]float64{1, 1}, []float64{2, 2}, minmin) {
		t.Error("strictly better should dominate")
	}
	if !Dominates([]float64{1, 2}, []float64{2, 2}, minmin) {
		t.Error("better-in-one, tied-in-other should dominate")
	}
	if Dominates([]float64{1, 3}, []float64{2, 2}, minmin) {
		t.Error("trade-off should not dominate")
	}
	if Dominates([]float64{2, 2}, []float64{2, 2}, minmin) {
		t.Error("equal points should not dominate")
	}
	// Maximize flips the sense.
	dirs := []Direction{Maximize, Minimize}
	if !Dominates([]float64{5, 1}, []float64{4, 2}, dirs) {
		t.Error("max/min mix wrong")
	}
}

func TestDominatesIrreflexiveAntisymmetric(t *testing.T) {
	f := func(a0, a1, b0, b1 int8) bool {
		a := []float64{float64(a0), float64(a1)}
		b := []float64{float64(b0), float64(b1)}
		if Dominates(a, a, minmin) {
			return false
		}
		return !(Dominates(a, b, minmin) && Dominates(b, a, minmin))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFront(t *testing.T) {
	// Classic staircase: (1,4) (2,2) (4,1) on front; (3,3) (5,5) dominated.
	p := pts([2]float64{1, 4}, [2]float64{2, 2}, [2]float64{4, 1}, [2]float64{3, 3}, [2]float64{5, 5})
	front := Front(p, minmin)
	want := []int{0, 1, 2}
	if len(front) != 3 {
		t.Fatalf("front %v want %v", front, want)
	}
	for i := range want {
		if front[i] != want[i] {
			t.Fatalf("front %v want %v", front, want)
		}
	}
}

func TestFrontIdempotentProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var p []Point
		for i := 0; i+1 < len(raw); i += 2 {
			p = append(p, Point{ID: i, Values: []float64{float64(raw[i]), float64(raw[i+1])}})
		}
		front := Front(p, minmin)
		sub := make([]Point, len(front))
		for i, idx := range front {
			sub[i] = p[idx]
		}
		again := Front(sub, minmin)
		return len(again) == len(sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontMembersMutuallyNonDominated(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		var p []Point
		for i := 0; i+1 < len(raw); i += 2 {
			p = append(p, Point{ID: i, Values: []float64{float64(raw[i]), float64(raw[i+1])}})
		}
		front := Front(p, minmin)
		for _, i := range front {
			for _, j := range front {
				if i != j && Dominates(p[i].Values, p[j].Values, minmin) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonFrontKeepsNearTies(t *testing.T) {
	// B is strictly dominated by A but within 5% in objective 0.
	p := pts([2]float64{100, 10}, [2]float64{103, 10.2}, [2]float64{200, 30})
	strict := Front(p, minmin)
	if len(strict) != 1 || strict[0] != 0 {
		t.Fatalf("strict front %v", strict)
	}
	eps := EpsilonFront(p, minmin, 0.05)
	if len(eps) != 2 {
		t.Fatalf("eps front %v want indices 0,1", eps)
	}
	// The clearly dominated point stays out.
	for _, i := range eps {
		if i == 2 {
			t.Fatal("eps front admitted a clearly dominated point")
		}
	}
}

func TestEpsilonFrontSupersetProperty(t *testing.T) {
	f := func(raw []uint8, epsRaw uint8) bool {
		if len(raw) < 4 {
			return true
		}
		var p []Point
		for i := 0; i+1 < len(raw); i += 2 {
			p = append(p, Point{ID: i, Values: []float64{float64(raw[i]) + 1, float64(raw[i+1]) + 1}})
		}
		eps := float64(epsRaw) / 512
		strict := map[int]bool{}
		for _, i := range Front(p, minmin) {
			strict[i] = true
		}
		epsSet := map[int]bool{}
		for _, i := range EpsilonFront(p, minmin, eps) {
			epsSet[i] = true
		}
		for i := range strict {
			if !epsSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNonDominatedSort(t *testing.T) {
	p := pts([2]float64{1, 1}, [2]float64{2, 2}, [2]float64{3, 3})
	fronts := NonDominatedSort(p, minmin)
	if len(fronts) != 3 {
		t.Fatalf("fronts %v", fronts)
	}
	for i, f := range fronts {
		if len(f) != 1 || f[0] != i {
			t.Fatalf("fronts %v", fronts)
		}
	}
	// Every point appears exactly once.
	p2 := pts([2]float64{1, 4}, [2]float64{4, 1}, [2]float64{2, 2}, [2]float64{5, 5}, [2]float64{3, 3})
	fronts = NonDominatedSort(p2, minmin)
	seen := map[int]int{}
	for _, f := range fronts {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 5 {
		t.Fatalf("sort lost points: %v", fronts)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appears %d times", i, c)
		}
	}
}

func TestKnee(t *testing.T) {
	// Clear knee at (2,2) between extremes (0,10) and (10,0).
	p := pts([2]float64{0, 10}, [2]float64{2, 2}, [2]float64{10, 0})
	if k := Knee(p, minmin); k != 1 {
		t.Fatalf("knee=%d want 1", k)
	}
	if Knee(nil, minmin) != -1 {
		t.Fatal("empty knee should be -1")
	}
	single := pts([2]float64{1, 1})
	if Knee(single, minmin) != 0 {
		t.Fatal("single-point knee")
	}
}

func TestDirectionString(t *testing.T) {
	if Minimize.String() != "min" || Maximize.String() != "max" {
		t.Fatal("Direction strings wrong")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2}, minmin)
}

func TestEpsilonFrontMonotoneInEps(t *testing.T) {
	// A larger tolerance can only admit more points.
	f := func(raw []uint8, e1, e2 uint8) bool {
		if len(raw) < 6 {
			return true
		}
		lo, hi := float64(e1)/512, float64(e2)/512
		if lo > hi {
			lo, hi = hi, lo
		}
		var p []Point
		for i := 0; i+1 < len(raw); i += 2 {
			p = append(p, Point{ID: i, Values: []float64{float64(raw[i]) + 1, float64(raw[i+1]) + 1}})
		}
		small := map[int]bool{}
		for _, i := range EpsilonFront(p, minmin, lo) {
			small[i] = true
		}
		for i := range small {
			found := false
			for _, j := range EpsilonFront(p, minmin, hi) {
				if j == i {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonFrontNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative eps should panic")
		}
	}()
	EpsilonFront(pts([2]float64{1, 1}), minmin, -0.1)
}

// peelFronts is the reference for NonDominatedSort: repeated Front on what
// is left, O(n²) per front. Fronts come out ascending by input index
// because Front keeps input order.
func peelFronts(points []Point, dirs []Direction) [][]int {
	left := make([]int, len(points))
	for i := range left {
		left[i] = i
	}
	var fronts [][]int
	for len(left) > 0 {
		sub := make([]Point, len(left))
		for k, i := range left {
			sub[k] = points[i]
		}
		onFront := make([]bool, len(left))
		front := Front(sub, dirs)
		for k, j := range front {
			onFront[j] = true
			front[k] = left[j]
		}
		fronts = append(fronts, front)
		rest := left[:0]
		for k, i := range left {
			if !onFront[k] {
				rest = append(rest, i)
			}
		}
		left = rest
	}
	return fronts
}

// checkAgainstPeel requires the exact partition of the oracle: the same
// fronts in the same order, each ascending by input index.
func checkAgainstPeel(t *testing.T, name string, points []Point, dirs []Direction) {
	t.Helper()
	got, want := NonDominatedSort(points, dirs), peelFronts(points, dirs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d fronts, oracle has %d\n got %v\nwant %v", name, len(got), len(want), got, want)
	}
	for k := range want {
		if !slices.Equal(got[k], want[k]) {
			t.Fatalf("%s: front %d = %v, oracle %v", name, k, got[k], want[k])
		}
	}
}

// mkPoints builds n points of m objectives from gen(i, j).
func mkPoints(n, m int, gen func(i, j int) float64) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{ID: i, Values: make([]float64, m)}
		for j := range out[i].Values {
			out[i].Values[j] = gen(i, j)
		}
	}
	return out
}

func TestNonDominatedSortMatchesPeeling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		m := 1 + round%4
		n := 1 + rng.Intn(120)
		dirs := make([]Direction, m)
		for j := range dirs {
			dirs[j] = Direction(rng.Intn(2))
		}
		tag := fmt.Sprintf("round %d (n=%d m=%d)", round, n, m)
		checkAgainstPeel(t, tag+" uniform", mkPoints(n, m, func(int, int) float64 { return rng.Float64() }), dirs)
		// Integer grid: most pairs tie in at least one objective.
		grid := mkPoints(n, m, func(int, int) float64 { return float64(rng.Intn(4)) })
		checkAgainstPeel(t, tag+" grid", grid, dirs)
		// Exact duplicates of whole points, which never dominate each other.
		checkAgainstPeel(t, tag+" duplicates", append(grid, grid[:n/2+1]...), dirs)
		// Non-finite values: NaN is the worst of its objective, ±Inf order.
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1}
		checkAgainstPeel(t, tag+" non-finite", mkPoints(n, m, func(int, int) float64 { return special[rng.Intn(len(special))] }), dirs)
	}
	for m := 1; m <= 4; m++ {
		dirs := make([]Direction, m)
		// A chain: every point dominates the next, n fronts of one.
		chain := mkPoints(60, m, func(i, _ int) float64 { return float64(i) })
		checkAgainstPeel(t, fmt.Sprintf("chain m=%d", m), chain, dirs)
		if got := len(NonDominatedSort(chain, dirs)); got != 60 {
			t.Fatalf("chain m=%d: %d fronts, want 60", m, got)
		}
	}
	// Long runs of tied first values, past the fuzz cap: every value is
	// one of four integers, so each run holds about n/4 points.
	for m := 2; m <= 3; m++ {
		grid := mkPoints(1500, m, func(int, int) float64 { return float64(rng.Intn(4)) })
		checkAgainstPeel(t, fmt.Sprintf("grid n=1500 m=%d", m), grid, make([]Direction, m))
	}
	// First values a few ulps apart across the radix sort's byte
	// boundaries (a carry out of the low byte, out of the second), of both
	// signs.
	var edges []Point
	for _, d := range []uint64{0xfe, 0xff, 0x100, 0x101, 0xffff, 0x10000} {
		for _, sign := range []float64{1, -1} {
			x := sign * math.Float64frombits(math.Float64bits(1)+d)
			edges = append(edges, Point{ID: len(edges), Values: []float64{x, float64(len(edges) % 5)}})
		}
	}
	checkAgainstPeel(t, "radix byte boundaries", edges, minmin)
	// -0 and +0 are equal to <, so the second point dominates the first.
	zeros := []Point{{ID: 0, Values: []float64{math.Copysign(0, -1), 5}}, {ID: 1, Values: []float64{0, 3}}}
	checkAgainstPeel(t, "signed zeros", zeros, minmin)
	if got := NonDominatedSort(zeros, minmin); len(got) != 2 || !slices.Equal(got[0], []int{1}) {
		t.Fatalf("signed zeros: %v, want [[1] [0]]", got)
	}
	// One front holding everything: the line x+y = c and the plane
	// x+y+z = c, in both visiting orders.
	for _, flip := range []bool{false, true} {
		at := func(i int) float64 {
			if flip {
				return float64(199 - i)
			}
			return float64(i)
		}
		line := mkPoints(200, 2, func(i, j int) float64 { return []float64{at(i), -at(i)}[j] })
		plane := mkPoints(200, 3, func(i, j int) float64 {
			x, y := at(i), float64((i*7)%13)
			return []float64{x, y, -x - y}[j]
		})
		for name, pts := range map[string][]Point{"line": line, "plane": plane} {
			dirs := make([]Direction, len(pts[0].Values))
			checkAgainstPeel(t, name, pts, dirs)
			if got := NonDominatedSort(pts, dirs); len(got) != 1 || len(got[0]) != 200 {
				t.Fatalf("%s (flip=%v): want one front of 200, got %d fronts", name, flip, len(got))
			}
		}
	}
	if got := NonDominatedSort(nil, minmin); got != nil {
		t.Fatalf("empty input: %v", got)
	}
}

// fuzzPoints decodes bytes into a sort input: the first byte picks 1–4
// objectives, the second their directions, and every further byte is one
// value on a coarse grid (so ties, duplicates, non-finite values and -0
// against +0 are common), row by row.
func fuzzPoints(data []byte) ([]Point, []Direction) {
	if len(data) < 2 {
		return nil, nil
	}
	m := 1 + int(data[0])%4
	dirs := make([]Direction, m)
	for j := range dirs {
		dirs[j] = Direction(data[1] >> j & 1)
	}
	body := data[2:]
	n := min(len(body)/m, 96)
	return mkPoints(n, m, func(i, j int) float64 {
		switch b := body[i*m+j]; b {
		case 255:
			return math.NaN()
		case 254:
			return math.Inf(1)
		case 253:
			return math.Inf(-1)
		case 252:
			return math.Copysign(0, -1)
		default:
			return float64(b%16) - 8
		}
	}), dirs
}

func FuzzNonDominatedSort(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 2, 2, 3, 3})                     // 2-D chain
	f.Add([]byte{1, 0, 0, 9, 1, 8, 2, 7, 3, 6})               // 2-D line, one front
	f.Add([]byte{1, 1, 4, 4, 4, 4, 4, 4})                     // duplicates, first objective maximized
	f.Add([]byte{2, 5, 1, 2, 3, 3, 2, 1, 2, 2, 2, 255, 0, 0}) // 3-D with a NaN
	f.Add([]byte{3, 10, 254, 0, 253, 1, 1, 253, 0, 254})      // 4-D with ±Inf
	f.Add([]byte{0, 0, 5, 3, 5, 255, 1})                      // 1-D ties and a NaN
	f.Add([]byte{1, 0, 252, 13, 8, 11})                       // 2-D, -0 against +0
	f.Fuzz(func(t *testing.T, data []byte) {
		points, dirs := fuzzPoints(data)
		checkAgainstPeel(t, "fuzz", points, dirs)
	})
}

// TestNaNRanksWorst pins the NaN contract of Normalize for every entry
// point: a trial with a NaN metric is dominated by any NaN-free trial that
// is no worse on the remaining objectives, so it leaves front 0.
func TestNaNRanksWorst(t *testing.T) {
	nan := math.NaN()
	for _, dirs := range [][]Direction{{Minimize, Minimize}, {Maximize, Minimize}, {Maximize, Maximize}} {
		// better(j, v) is a value v steps from the best of objective j.
		better := func(j int, v float64) float64 {
			if dirs[j] == Maximize {
				return -v
			}
			return v
		}
		p := []Point{
			{ID: 0, Values: []float64{nan, better(1, 2)}},
			{ID: 1, Values: []float64{better(0, 5), better(1, 1)}},
			{ID: 2, Values: []float64{nan, nan}},
		}
		if !Dominates(p[1].Values, p[0].Values, dirs) || Dominates(p[0].Values, p[1].Values, dirs) {
			t.Fatalf("%v: a finite value must beat NaN", dirs)
		}
		if Dominates(p[0].Values, p[0].Values, dirs) {
			t.Fatalf("%v: NaN must tie with NaN", dirs)
		}
		for name, front := range map[string][]int{
			"Front":            Front(p, dirs),
			"EpsilonFront":     EpsilonFront(p, dirs, 0.05),
			"NonDominatedSort": NonDominatedSort(p, dirs)[0],
		} {
			if !slices.Equal(front, []int{1}) {
				t.Fatalf("%v: %s = %v, want only the NaN-free point", dirs, name, front)
			}
		}
	}
	// ±Inf keep their order: -Inf is the best value to minimize, +Inf the
	// best to maximize.
	inf := math.Inf(1)
	p := []Point{{ID: 0, Values: []float64{-inf, inf}}, {ID: 1, Values: []float64{0, 0}}, {ID: 2, Values: []float64{inf, -inf}}}
	fronts := NonDominatedSort(p, []Direction{Minimize, Maximize})
	if len(fronts) != 3 || fronts[0][0] != 0 || fronts[1][0] != 1 || fronts[2][0] != 2 {
		t.Fatalf("±Inf ordering: %v", fronts)
	}
	if got := EpsilonFront(p, []Direction{Minimize, Maximize}, 0.05); !slices.Equal(got, []int{0}) {
		t.Fatalf("ε-front over ±Inf: %v", got)
	}
}

// TestNonDominatedSortAllocs keeps the sort at a fixed handful of
// allocations whatever the input size.
func TestNonDominatedSortAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points := mkPoints(2000, 2, func(int, int) float64 { return rng.Float64() })
	if got := testing.AllocsPerRun(5, func() { NonDominatedSort(points, minmin) }); got > 8 {
		t.Fatalf("NonDominatedSort allocates %v times per call at n=2000, want <= 8", got)
	}
}
