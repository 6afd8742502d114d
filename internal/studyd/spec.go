// Package studyd is the study-execution service behind rldecide-serve: a
// long-running daemon that accepts study submissions over HTTP, schedules
// trials from every active study onto one shared bounded worker pool,
// journals each finished trial through internal/journal, and serves live
// results (trials, Pareto fronts) while campaigns run. Journals plus
// persisted specs make the daemon crash-safe: on startup it replays its
// state directory and resumes every unfinished campaign exactly where it
// stopped, re-executing only trials that never finished.
package studyd

import (
	"fmt"
	"math"

	"rldecide/internal/core"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/search"
)

// ParamSpec declares one dimension of the search space.
type ParamSpec struct {
	Name string `json:"name"`
	// Type is one of "categorical", "intset", "intrange", "floatrange".
	Type    string   `json:"type"`
	Options []string `json:"options,omitempty"` // categorical
	Ints    []int    `json:"ints,omitempty"`    // intset
	Lo      float64  `json:"lo,omitempty"`      // intrange/floatrange
	Hi      float64  `json:"hi,omitempty"`
	Log     bool     `json:"log,omitempty"` // floatrange: log-uniform
}

// MetricSpec declares one evaluation metric.
type MetricSpec struct {
	Name      string `json:"name"`
	Unit      string `json:"unit,omitempty"`
	Direction string `json:"direction"` // "min" | "max"
}

// ExplorerSpec selects the exploratory method.
type ExplorerSpec struct {
	Type string `json:"type"` // "random" | "grid" | "tpe"
	// Random Search options.
	Dedup bool `json:"dedup,omitempty"`
	// TPE options (zero = package defaults).
	Gamma       float64 `json:"gamma,omitempty"`
	NCandidates int     `json:"n_candidates,omitempty"`
	MinTrials   int     `json:"min_trials,omitempty"`
}

// Spec is one study submission: the five methodology stages plus the
// execution budget. It is persisted verbatim next to the journal so a
// restarted daemon can rebuild the study.
type Spec struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Params      []ParamSpec  `json:"params"`
	Explorer    ExplorerSpec `json:"explorer"`
	Metrics     []MetricSpec `json:"metrics"`
	// Objective names a registered objective (see RegisterObjective;
	// built-ins: "sphere", "rastrigin").
	Objective string `json:"objective"`
	// SleepMs adds artificial per-trial latency (demoing live results and
	// drain behavior).
	SleepMs int `json:"sleep_ms,omitempty"`
	// Noise adds seeded Gaussian noise of this magnitude to built-in
	// objective metrics (deterministic per trial seed).
	Noise float64 `json:"noise,omitempty"`
	// Budget is the total number of trials.
	Budget int `json:"budget"`
	// Parallelism caps this study's concurrent trials (the daemon's pool
	// bounds total concurrency across studies; default 1).
	Parallelism int `json:"parallelism,omitempty"`
	// Seed makes the campaign reproducible and resumable.
	Seed uint64 `json:"seed"`
	// Eps widens the served Pareto front to ε-non-dominated trials.
	Eps float64 `json:"eps,omitempty"`
}

// Validate checks the spec as submission does.
func (sp Spec) Validate() error {
	p, err := sp.prepare()
	if err != nil {
		return err
	}
	return sp.admit(p)
}

// Space materializes the parameter space.
func (sp Spec) Space() (*param.Space, error) {
	if len(sp.Params) == 0 {
		return nil, fmt.Errorf("studyd: spec needs at least one parameter")
	}
	params := make([]param.Param, 0, len(sp.Params))
	for _, ps := range sp.Params {
		p, err := ps.build()
		if err != nil {
			return nil, err
		}
		params = append(params, p)
	}
	return param.NewSpace(params...)
}

func (ps ParamSpec) build() (param.Param, error) {
	if ps.Name == "" {
		return nil, fmt.Errorf("studyd: unnamed parameter")
	}
	switch ps.Type {
	case "categorical":
		if len(ps.Options) == 0 {
			return nil, fmt.Errorf("studyd: categorical %q needs options", ps.Name)
		}
		return param.NewCategorical(ps.Name, ps.Options...), nil
	case "intset":
		if len(ps.Ints) == 0 {
			return nil, fmt.Errorf("studyd: intset %q needs ints", ps.Name)
		}
		return param.NewIntSet(ps.Name, ps.Ints...), nil
	case "intrange":
		if ps.Hi < ps.Lo {
			return nil, fmt.Errorf("studyd: intrange %q is empty", ps.Name)
		}
		// A fractional bound truncates toward zero here; admit refuses one
		// at submission. The int conversions are exact only in range.
		if !(ps.Lo >= math.MinInt && ps.Hi < -math.MinInt) || !param.IntRangeFits(int(ps.Lo), int(ps.Hi)) {
			return nil, fmt.Errorf("studyd: intrange %q spans more than %d values", ps.Name, math.MaxInt)
		}
		return param.NewIntRange(ps.Name, int(ps.Lo), int(ps.Hi)), nil
	case "floatrange":
		if ps.Hi < ps.Lo {
			return nil, fmt.Errorf("studyd: floatrange %q is empty", ps.Name)
		}
		if ps.Log {
			if ps.Lo <= 0 {
				return nil, fmt.Errorf("studyd: log floatrange %q needs lo > 0", ps.Name)
			}
			return param.NewLogFloatRange(ps.Name, ps.Lo, ps.Hi), nil
		}
		return param.NewFloatRange(ps.Name, ps.Lo, ps.Hi), nil
	default:
		return nil, fmt.Errorf("studyd: unknown parameter type %q for %q", ps.Type, ps.Name)
	}
}

func (sp Spec) metrics() ([]core.Metric, error) {
	if len(sp.Metrics) == 0 {
		return nil, fmt.Errorf("studyd: spec needs at least one metric")
	}
	out := make([]core.Metric, 0, len(sp.Metrics))
	for _, ms := range sp.Metrics {
		m := core.Metric{Name: ms.Name, Unit: ms.Unit}
		switch ms.Direction {
		case "min":
			m.Direction = pareto.Minimize
		case "max":
			m.Direction = pareto.Maximize
		default:
			return nil, fmt.Errorf("studyd: metric %q direction must be \"min\" or \"max\", got %q", ms.Name, ms.Direction)
		}
		out = append(out, m)
	}
	return out, nil
}

func (sp Spec) explorer() (search.Explorer, error) {
	switch sp.Explorer.Type {
	case "random", "":
		return search.RandomSearch{Dedup: sp.Explorer.Dedup}, nil
	case "grid":
		return &search.GridSearch{}, nil
	case "tpe":
		return search.TPE{
			Gamma:       sp.Explorer.Gamma,
			NCandidates: sp.Explorer.NCandidates,
			MinTrials:   sp.Explorer.MinTrials,
		}, nil
	default:
		return nil, fmt.Errorf("studyd: unknown explorer %q", sp.Explorer.Type)
	}
}

// admit is what submission checks beyond prepare: refusals added after
// specs had been persisted without them, which a restarted daemon must
// still load and serve as it did before. Such a study's intrange bound
// was truncated to an int and the study ran; its unnamed or duplicate
// metric names failed its run in core, which marked it failed.
func (sp Spec) admit(p *prepared) error {
	for _, ps := range sp.Params {
		//lint:ignore float-eq an intrange bound must be exactly integral; Trunc is exact
		if ps.Type == "intrange" && (ps.Lo != math.Trunc(ps.Lo) || ps.Hi != math.Trunc(ps.Hi)) {
			return fmt.Errorf("studyd: intrange %q needs integer bounds", ps.Name)
		}
	}
	return core.CheckMetricNames(p.metrics)
}

// prepared is a checked spec built: its space, metrics and objective. All
// of it is read-only once built, so concurrent trials share it.
type prepared struct {
	space     *param.Space
	metrics   []core.Metric
	objective core.Objective
}

// prepare is the one place a spec is checked and built: Validate,
// submission, loading and the evaluator all go through it, and only
// Validate and submission add admit. The explorer is checked here but
// built per run, because explorers are stateful.
func (sp Spec) prepare() (*prepared, error) {
	if sp.Name == "" {
		return nil, fmt.Errorf("studyd: spec needs a name")
	}
	if sp.Budget <= 0 {
		return nil, fmt.Errorf("studyd: spec needs budget > 0")
	}
	if sp.Parallelism < 0 {
		return nil, fmt.Errorf("studyd: parallelism must be >= 0")
	}
	space, err := sp.Space()
	if err != nil {
		return nil, err
	}
	metrics, err := sp.metrics()
	if err != nil {
		return nil, err
	}
	if _, err := sp.explorer(); err != nil {
		return nil, err
	}
	objective, err := buildObjective(sp, metrics)
	if err != nil {
		return nil, err
	}
	return &prepared{space: space, metrics: metrics, objective: objective}, nil
}
