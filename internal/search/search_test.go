package search

import (
	"math"
	"runtime"
	"testing"

	"rldecide/internal/mathx"
	"rldecide/internal/param"
)

func smallSpace() *param.Space {
	return param.MustSpace(
		param.NewIntSet("a", 1, 2, 3),
		param.NewCategorical("b", "x", "y"),
	)
}

func TestRandomSearchProposesValid(t *testing.T) {
	s := smallSpace()
	rng := mathx.NewRand(1)
	var r RandomSearch
	for i := 0; i < 50; i++ {
		a, ok := r.Next(rng, s, nil)
		if !ok || !s.Contains(a) {
			t.Fatalf("bad proposal %v ok=%v", a, ok)
		}
	}
}

func TestRandomSearchDedup(t *testing.T) {
	s := smallSpace() // 6 configs
	rng := mathx.NewRand(2)
	r := RandomSearch{Dedup: true, MaxRetries: 500}
	var hist []Observation
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		a, ok := r.Next(rng, s, hist)
		if !ok {
			t.Fatalf("exhausted after %d", i)
		}
		if seen[a.Key()] {
			t.Fatalf("duplicate %s", a.Key())
		}
		seen[a.Key()] = true
		hist = append(hist, Observation{Assignment: a})
	}
	// Space exhausted now.
	if _, ok := r.Next(rng, s, hist); ok {
		t.Fatal("should be exhausted")
	}
}

func TestGridSearchEnumeratesAll(t *testing.T) {
	s := smallSpace()
	rng := mathx.NewRand(3)
	g := &GridSearch{}
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		a, ok := g.Next(rng, s, nil)
		if !ok {
			t.Fatalf("grid ended early at %d", i)
		}
		seen[a.Key()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("grid covered %d of 6", len(seen))
	}
	if _, ok := g.Next(rng, s, nil); ok {
		t.Fatal("grid should be exhausted")
	}
}

// TestGridSearchMatchesProduct checks the walk over a space of every
// parameter kind against the cartesian product built here, the first
// parameter varying slowest.
func TestGridSearchMatchesProduct(t *testing.T) {
	s := param.MustSpace(
		param.NewIntSet("rk_order", 3, 5, 8),
		param.NewCategorical("framework", "rllib", "stablebaselines", "tfagents"),
		param.NewCategorical("algo", "ppo", "sac"),
		param.NewIntRange("nodes", 1, 2),
		param.NewFloatRange("lr", 0, 1),
	)
	want := []param.Assignment{nil}
	for _, p := range s.Params() {
		var next []param.Assignment
		for _, base := range want {
			for _, v := range p.Enumerate() {
				a := base.Clone()
				a.Set(p.Name(), v)
				next = append(next, a)
			}
		}
		want = next
	}
	if len(want) != 3*3*2*2*5 {
		t.Fatalf("product has %d points, want 180", len(want))
	}
	g := &GridSearch{}
	rng := mathx.NewRand(0)
	for i, w := range want {
		a, ok := g.Next(rng, s, nil)
		if !ok || a.Key() != w.Key() {
			t.Fatalf("point %d: got %v (ok=%v), want %v", i, a, ok, w)
		}
	}
	if a, ok := g.Next(rng, s, nil); ok {
		t.Fatalf("grid should be exhausted after %d points, proposed %v", len(want), a)
	}
}

// quadratic objective over a float space: minimum at x = 0.3.
func quadObs(x float64) Observation {
	a := param.Assign(param.Bind("x", param.Float(x)))
	return Observation{Assignment: a, Objective: (x - 0.3) * (x - 0.3)}
}

func TestTPEConcentratesNearOptimum(t *testing.T) {
	space := param.MustSpace(param.NewFloatRange("x", 0, 1))
	rng := mathx.NewRand(4)
	tpe := TPE{MinTrials: 8, NCandidates: 32}

	var hist []Observation
	// Seed history with a uniform sweep.
	for i := 0; i < 20; i++ {
		hist = append(hist, quadObs(float64(i)/19))
	}
	// TPE proposals should be much closer to 0.3 than uniform (mean |x-0.3|
	// for uniform is ~0.26).
	sum := 0.0
	const n = 60
	for i := 0; i < n; i++ {
		a, ok := tpe.Next(rng, space, hist)
		if !ok {
			t.Fatal("TPE exhausted")
		}
		x := a.Value("x").Float()
		if x < 0 || x > 1 {
			t.Fatalf("TPE proposed out of range: %v", x)
		}
		sum += math.Abs(x - 0.3)
	}
	mean := sum / n
	if mean > 0.18 {
		t.Fatalf("TPE proposals not concentrated: mean |x-0.3| = %v", mean)
	}
}

func TestTPEFallsBackToRandomEarly(t *testing.T) {
	space := smallSpace()
	rng := mathx.NewRand(5)
	tpe := TPE{}
	a, ok := tpe.Next(rng, space, nil)
	if !ok || !space.Contains(a) {
		t.Fatal("startup proposal invalid")
	}
}

func TestTPECategorical(t *testing.T) {
	// Categorical objective: option "y" is much better; TPE should prefer
	// proposing it.
	space := param.MustSpace(param.NewCategorical("c", "x", "y", "z"))
	rng := mathx.NewRand(6)
	var hist []Observation
	for i := 0; i < 30; i++ {
		opt := []string{"x", "y", "z"}[i%3]
		val := map[string]float64{"x": 5, "y": 0.1, "z": 7}[opt]
		hist = append(hist, Observation{
			Assignment: param.Assign(param.Bind("c", param.Str(opt))),
			Objective:  val,
		})
	}
	tpe := TPE{MinTrials: 5, NCandidates: 16}
	countY := 0
	const n = 60
	for i := 0; i < n; i++ {
		a, _ := tpe.Next(rng, space, hist)
		if a.Value("c").Str() == "y" {
			countY++
		}
	}
	if countY < n/2 {
		t.Fatalf("TPE picked the good option only %d/%d times", countY, n)
	}
}

func TestTPEIgnoresFailedTrials(t *testing.T) {
	space := param.MustSpace(param.NewFloatRange("x", 0, 1))
	rng := mathx.NewRand(7)
	hist := []Observation{
		{Assignment: param.Assign(param.Bind("x", param.Float(0.5))), Failed: true, Objective: math.NaN()},
		{Assignment: param.Assign(param.Bind("x", param.Float(0.5))), Pruned: true},
	}
	tpe := TPE{MinTrials: 1}
	if a, ok := tpe.Next(rng, space, hist); !ok || !space.Contains(a) {
		t.Fatal("TPE should survive failed-only history")
	}
}

// TestTPEIntRangeAllocCeiling: density used to enumerate every finite
// parameter per candidate and per observation set, so one Next with a
// 40-trial history over an IntRange of [0, 2e6] allocated 3.8 GB. Over
// [0, 2^40] one Next must stay inside a ceiling enumeration cannot meet.
func TestTPEIntRangeAllocCeiling(t *testing.T) {
	const ceiling = 1 << 20
	space := param.MustSpace(param.NewIntRange("n", 0, 1<<40), param.NewFloatRange("x", 0, 1))
	rng := mathx.NewRand(3)
	var hist []Observation
	for i := 0; i < 40; i++ {
		a := space.Sample(rng)
		hist = append(hist, Observation{Assignment: a, Objective: a.Value("x").Float()})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, ok := TPE{}.Next(rng, space, hist)
	runtime.ReadMemStats(&after)
	if !ok || !space.Contains(a) {
		t.Fatalf("TPE proposed %v (ok=%v) outside the space", a, ok)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > ceiling {
		t.Fatalf("one TPE.Next allocated %d bytes, ceiling %d", b, ceiling)
	}
}

// TestTPEGammaAboveOne: a Gamma above 1 asks for more good trials than
// there are usable ones; Next must still propose instead of slicing past
// the history.
func TestTPEGammaAboveOne(t *testing.T) {
	space := param.MustSpace(param.NewFloatRange("x", 0, 1))
	rng := mathx.NewRand(8)
	var hist []Observation
	for i := 0; i < 4; i++ {
		hist = append(hist, quadObs(float64(i)/3))
	}
	a, ok := TPE{Gamma: 2, MinTrials: 2}.Next(rng, space, hist)
	if !ok || !space.Contains(a) {
		t.Fatalf("TPE with gamma 2 proposed %v (ok=%v)", a, ok)
	}
}

func TestExplorerNames(t *testing.T) {
	if (RandomSearch{}).Name() != "random" || (&GridSearch{}).Name() != "grid" || (TPE{}).Name() != "tpe" {
		t.Fatal("names wrong")
	}
}

// TestReplayDeterminism pins the Explorer.Next replay contract that
// core.Study.Resume depends on: re-driving a fresh explorer with an
// identically seeded rng reproduces the proposal stream position by
// position, regardless of what already-finished history it is shown.
func TestReplayDeterminism(t *testing.T) {
	s := smallSpace()

	t.Run("random", func(t *testing.T) {
		first := make([]param.Assignment, 8)
		rng := mathx.NewRand(42)
		for i := range first {
			a, ok := (RandomSearch{}).Next(rng, s, nil)
			if !ok {
				t.Fatal("random search exhausted")
			}
			first[i] = a
		}
		// Replay with a fresh identically-seeded rng, feeding the finished
		// trials back as history (random search without Dedup ignores it).
		hist := make([]Observation, 0, len(first))
		for _, a := range first {
			hist = append(hist, Observation{Assignment: a, Objective: 1})
		}
		rng2 := mathx.NewRand(42)
		for i := range first {
			a, ok := (RandomSearch{}).Next(rng2, s, hist)
			if !ok || a.Key() != first[i].Key() {
				t.Fatalf("replay diverged at %d: %v vs %v", i, a, first[i])
			}
		}
	})

	t.Run("grid", func(t *testing.T) {
		g1, g2 := &GridSearch{}, &GridSearch{}
		rng := mathx.NewRand(0)
		for i := 0; ; i++ {
			a1, ok1 := g1.Next(rng, s, nil)
			a2, ok2 := g2.Next(rng, s, nil)
			if ok1 != ok2 {
				t.Fatal("grid replay lost sync")
			}
			if !ok1 {
				break
			}
			if a1.Key() != a2.Key() {
				t.Fatalf("grid replay diverged at %d", i)
			}
		}
	})
}
