// Package search implements the exploratory methods of step (c) of the
// paper's methodology: Random Search (used in the paper's campaign), Grid
// Search, and a Tree-of-Parzen-Estimators sampler in the style of the
// Hyperopt/Optuna frameworks the paper cites as the alternative
// implementation route.
package search

import (
	"math"
	"math/rand/v2"
	"sort"

	"rldecide/internal/param"
)

// Observation is the explorer-visible record of a finished trial: the
// configuration tried and the value of the objective the explorer
// optimizes (explorers are single-objective; multi-objective studies rank
// afterwards with Pareto tools).
type Observation struct {
	Assignment param.Assignment
	Objective  float64
	Maximize   bool
	Pruned     bool
	Failed     bool
}

// Explorer proposes the next learning configuration to evaluate.
type Explorer interface {
	// Name identifies the method.
	Name() string
	// Next returns the next assignment to try given the history, or
	// ok=false when the method is exhausted.
	//
	// Replay contract: Next must be a deterministic function of the rng
	// stream, the space, and the history it is shown — no hidden
	// randomness or wall-clock state. Campaign resume (core.Study.Resume)
	// relies on this: it re-drives a fresh explorer through the already
	// finished trial IDs with the original seed to restore the proposal
	// stream, then executes only the missing trials. History-independent
	// explorers (RandomSearch without Dedup, GridSearch) replay exactly;
	// history-dependent ones (TPE, Dedup) replay approximately because
	// the resumed history is shown all at once rather than incrementally.
	Next(rng *rand.Rand, space *param.Space, history []Observation) (param.Assignment, bool)
}

// HistoryFree is implemented by explorers whose Next ignores the history
// argument. Callers that build the observation list per proposal (an O(n)
// conversion, O(n²) over a campaign) may pass nil history when
// IgnoresHistory reports true. Whether an explorer is history-free can
// depend on its configuration (RandomSearch with Dedup reads history), so
// this is a method rather than a pure marker.
type HistoryFree interface {
	Explorer
	// IgnoresHistory reports whether this explorer instance never reads
	// the history passed to Next.
	IgnoresHistory() bool
}

// InPlace is implemented by explorers that can write their proposal into a
// caller-owned buffer. Callers that retain each proposal (core.Study keeps
// every trial's params) carve per-trial regions out of a slab and pass
// them as dst, eliminating the per-proposal allocation; the returned
// assignment may alias dst's backing array. NextInto must consume the rng
// stream exactly as Next does so replay is unaffected by which entry point
// drives the campaign.
type InPlace interface {
	Explorer
	// NextInto is Next writing into dst when capacity allows.
	NextInto(rng *rand.Rand, space *param.Space, history []Observation, dst param.Assignment) (param.Assignment, bool)
}

// RandomSearch samples uniform random configurations, optionally skipping
// duplicates.
type RandomSearch struct {
	// Dedup skips configurations already present in the history (up to
	// MaxRetries re-draws).
	Dedup      bool
	MaxRetries int // default 100
}

// Name implements Explorer.
func (RandomSearch) Name() string { return "random" }

// IgnoresHistory implements HistoryFree: plain random search never reads
// history; dedup does.
func (r RandomSearch) IgnoresHistory() bool { return !r.Dedup }

// Next implements Explorer.
func (r RandomSearch) Next(rng *rand.Rand, space *param.Space, history []Observation) (param.Assignment, bool) {
	return r.NextInto(rng, space, history, nil)
}

// NextInto implements InPlace.
func (r RandomSearch) NextInto(rng *rand.Rand, space *param.Space, history []Observation, dst param.Assignment) (param.Assignment, bool) {
	retries := r.MaxRetries
	if retries <= 0 {
		retries = 100
	}
	if !r.Dedup {
		return space.SampleInto(rng, dst), true
	}
	seen := make(map[string]bool, len(history))
	for _, h := range history {
		seen[h.Assignment.Key()] = true
	}
	for i := 0; i < retries; i++ {
		dst = space.SampleInto(rng, dst)
		if !seen[dst.Key()] {
			return dst, true
		}
	}
	return nil, false
}

// GridSearch walks the space's full grid: the cartesian product of every
// parameter's values, the first parameter varying slowest. It keeps one
// index per parameter, not the grid, so a proposal costs the same however
// large the grid is.
type GridSearch struct {
	// vals holds each parameter's values, enumerated once; an IntRange's
	// is nil, its i-th value being Lo+i.
	vals [][]param.Value
	// idx is the next point's index into each parameter's values.
	idx  []int
	done bool
}

// Name implements Explorer.
func (*GridSearch) Name() string { return "grid" }

// IgnoresHistory implements HistoryFree: the grid is a pure function of
// the space.
func (*GridSearch) IgnoresHistory() bool { return true }

// Next implements Explorer.
func (g *GridSearch) Next(rng *rand.Rand, space *param.Space, history []Observation) (param.Assignment, bool) {
	return g.NextInto(rng, space, history, nil)
}

// NextInto implements InPlace.
func (g *GridSearch) NextInto(rng *rand.Rand, space *param.Space, history []Observation, dst param.Assignment) (param.Assignment, bool) {
	params := space.Params()
	if g.idx == nil {
		g.idx = make([]int, len(params))
		g.vals = make([][]param.Value, len(params))
		for i, p := range params {
			if _, ok := p.(param.IntRange); !ok {
				g.vals[i] = p.Enumerate()
			}
		}
	}
	if g.done {
		return nil, false
	}
	a := dst[:0]
	for i, p := range params {
		if r, ok := p.(param.IntRange); ok {
			a.Set(p.Name(), param.Int(r.Lo+g.idx[i]))
		} else {
			a.Set(p.Name(), g.vals[i][g.idx[i]])
		}
	}
	// Advance the odometer, the last parameter fastest.
	for i := len(params) - 1; i >= 0; i-- {
		last := len(g.vals[i]) - 1
		if r, ok := params[i].(param.IntRange); ok {
			last = r.Hi - r.Lo
		}
		if g.idx[i] < last {
			g.idx[i]++
			return a, true
		}
		g.idx[i] = 0
	}
	g.done = true
	return a, true
}

// TPE is a Tree-of-Parzen-Estimators sampler (Bergstra et al. 2011, the
// algorithm behind Hyperopt): after MinTrials random startup trials it
// splits the history into good/bad by the Gamma quantile of the objective,
// fits per-parameter densities l(x) (good) and g(x) (bad), draws
// NCandidates from l and keeps the candidate maximizing l(x)/g(x).
type TPE struct {
	Gamma       float64 // good-quantile (default 0.25)
	NCandidates int     // candidates per step (default 24)
	MinTrials   int     // random startup trials (default 10)
}

// Name implements Explorer.
func (TPE) Name() string { return "tpe" }

func (t TPE) withDefaults() TPE {
	if t.Gamma == 0 {
		t.Gamma = 0.25
	}
	if t.NCandidates == 0 {
		t.NCandidates = 24
	}
	if t.MinTrials == 0 {
		t.MinTrials = 10
	}
	return t
}

// Next implements Explorer.
func (t TPE) Next(rng *rand.Rand, space *param.Space, history []Observation) (param.Assignment, bool) {
	t = t.withDefaults()
	var usable []Observation
	for _, h := range history {
		if !h.Pruned && !h.Failed && !math.IsNaN(h.Objective) {
			usable = append(usable, h)
		}
	}
	if len(usable) < t.MinTrials {
		return space.Sample(rng), true
	}
	// Sort best-first.
	sort.Slice(usable, func(i, j int) bool {
		if usable[i].Maximize {
			return usable[i].Objective > usable[j].Objective
		}
		return usable[i].Objective < usable[j].Objective
	})
	// A Gamma above 1 asks for more good trials than there are: all of
	// them are good, none bad, and the proposal is random.
	nGood := min(max(int(math.Ceil(t.Gamma*float64(len(usable)))), 1), len(usable))
	good := usable[:nGood]
	bad := usable[nGood:]
	if len(bad) == 0 {
		return space.Sample(rng), true
	}

	best := space.Sample(rng)
	bestScore := math.Inf(-1)
	for c := 0; c < t.NCandidates; c++ {
		cand := t.sampleFromGood(rng, space, good)
		score := t.logLikelihoodRatio(space, cand, good, bad)
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	return best, true
}

// sampleFromGood draws each parameter from the good-trial density: for
// categorical/finite parameters a smoothed empirical distribution, for
// continuous ones a kernel draw around a random good observation.
func (t TPE) sampleFromGood(rng *rand.Rand, space *param.Space, good []Observation) param.Assignment {
	a := make(param.Assignment, 0, len(space.Params()))
	for _, p := range space.Params() {
		pick := good[rng.IntN(len(good))].Assignment.Value(p.Name())
		switch pp := p.(type) {
		case param.FloatRange:
			width := (pp.Hi - pp.Lo) / 5
			v := pick.Float() + rng.NormFloat64()*width
			if v < pp.Lo {
				v = pp.Lo
			}
			if v > pp.Hi {
				v = pp.Hi
			}
			a.Set(p.Name(), param.Float(v))
		default:
			// Finite parameters: mostly reuse good values, sometimes
			// explore uniformly (smoothing).
			if rng.Float64() < 0.2 {
				a.Set(p.Name(), p.Sample(rng))
			} else {
				a.Set(p.Name(), pick)
			}
		}
	}
	return a
}

// logLikelihoodRatio scores a candidate by Σ log l(x_i)/g(x_i) with
// Laplace-smoothed per-parameter densities.
func (t TPE) logLikelihoodRatio(space *param.Space, cand param.Assignment, good, bad []Observation) float64 {
	score := 0.0
	for _, p := range space.Params() {
		v := cand.Value(p.Name())
		score += math.Log(density(p, v, good)) - math.Log(density(p, v, bad))
	}
	return score
}

// density estimates the probability of value v for parameter p in the
// observation set: smoothed frequency for finite parameters, a simple
// kernel estimate for continuous ones.
func density(p param.Param, v param.Value, obs []Observation) float64 {
	switch pp := p.(type) {
	case param.FloatRange:
		width := (pp.Hi - pp.Lo) / 5
		if width == 0 {
			return 1
		}
		s := 0.0
		for _, o := range obs {
			d := (o.Assignment.Value(p.Name()).Float() - v.Float()) / width
			s += math.Exp(-0.5 * d * d)
		}
		return (s + 1e-3) / float64(len(obs)+1)
	default:
		k := p.Count()
		count := 0
		for _, o := range obs {
			if o.Assignment.Value(p.Name()).Equal(v) {
				count++
			}
		}
		return (float64(count) + 1) / float64(len(obs)+k)
	}
}
