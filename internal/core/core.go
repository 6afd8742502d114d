// Package core implements the paper's primary contribution: a methodology
// for building decision-analysis tools for (distributed) machine-learning
// projects. A Study wires the five stages together:
//
//	(a) the case study        — CaseStudy metadata plus an Objective that
//	                            knows how to run one learning task;
//	(b) learning configs      — a param.Space of algorithm-, system- and
//	                            environment-dependent parameters;
//	(c) exploratory method    — a search.Explorer (Random Search, Grid
//	                            Search, TPE, ...);
//	(d) evaluation metrics    — Metrics recorded by every trial (reward,
//	                            computation time, power consumption, ...);
//	(e) ranking method        — a Ranker (Pareto fronts, sorted arrays)
//	                            producing the decision analysis.
//
// Study.Run executes trials (optionally in parallel), collects the metric
// values, and returns a Report that the report package renders as tables
// and Pareto-front plots.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"rldecide/internal/mathx"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/search"
)

// CaseStudy is stage (a): what problem the study is about.
type CaseStudy struct {
	Name        string
	Description string
}

// Metric is one evaluation criterion of stage (d).
type Metric struct {
	Name      string
	Unit      string
	Direction pareto.Direction
}

// Trial is one evaluated learning configuration.
type Trial struct {
	ID     int
	Params param.Assignment
	// Values holds the recorded metrics (name-sorted).
	Values Values
	// Pruned marks a trial an objective stopped early. Nothing in this
	// repository prunes; journals that carry the flag still load, and TPE
	// leaves such trials out of its model.
	Pruned bool
	Err    error
	Seed   uint64
	// Worker names the executor that evaluated the trial ("local", or a
	// remote worker's registered name). Attribution only: replay and
	// ranking ignore it, so a campaign resumes identically whether its
	// journal was written by one process or a fleet.
	Worker string
	// WallMs is the trial's measured wall-clock compute time in
	// milliseconds (via power.Stopwatch). Informational only, like
	// Worker: replay, ranking, and determinism fingerprints ignore it —
	// the same campaign re-run on different hardware records different
	// WallMs but identical results.
	WallMs float64
}

// Recorder is handed to the objective to report metric values.
type Recorder struct {
	metrics []Metric
	trial   *Trial
	ctx     context.Context
	mu      sync.Mutex
}

// Context returns the run context of the trial. Long-running objectives
// should watch it and return its error when cancelled so the study can
// drain quickly; an interrupted trial is discarded (not recorded, not
// journaled) and is re-proposed when the campaign resumes.
func (r *Recorder) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// TrialID returns the ID of the trial being recorded (0 for standalone
// recorders from NewRecorder). Executors use it to address dispatches.
func (r *Recorder) TrialID() int { return r.trial.ID }

// SetWorker records which executor evaluated the trial (see Trial.Worker).
func (r *Recorder) SetWorker(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trial.Worker = name
}

// SetWallMs records the trial's measured wall-clock compute time (see
// Trial.WallMs).
func (r *Recorder) SetWallMs(ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trial.WallMs = ms
}

// NewRecorder returns a standalone recorder over the given metrics for
// objective execution outside a Study — the shape remote workers use: they
// rebuild the objective from a dispatched spec, run it against this
// recorder, and ship the collected trial values back. The returned Trial
// accumulates the reported values.
func NewRecorder(ctx context.Context, metrics []Metric) (*Recorder, *Trial) {
	t := &Trial{Values: make(Values, 0, len(metrics))}
	return &Recorder{metrics: metrics, trial: t, ctx: ctx}, t
}

// Report records the final value of a metric. Unknown metric names panic:
// the metric list is the study's contract.
func (r *Recorder) Report(metric string, value float64) {
	if !hasMetric(r.metrics, metric) {
		panic(fmt.Sprintf("core: trial reported unknown metric %q", metric))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trial.Values.Set(metric, value)
}

// Objective runs one learning configuration and reports its metrics.
type Objective func(a param.Assignment, seed uint64, rec *Recorder) error

// Ranker is stage (e): it turns finished trials into a decision analysis.
type Ranker interface {
	// Name identifies the ranking method.
	Name() string
	// Rank orders/partitions the trials (indices into the slice).
	Rank(trials []Trial, metrics []Metric) Ranking
}

// Ranking is the ranker's output: either successive fronts (Pareto) or a
// best-first ordering (sorted array), or both.
type Ranking struct {
	Method  string
	Fronts  [][]int // Fronts[0] is the non-dominated set, when applicable
	Ordered []int   // best-first order, when applicable
}

// Study is the assembled methodology instance.
type Study struct {
	CaseStudy CaseStudy
	Space     *param.Space
	Explorer  search.Explorer
	Metrics   []Metric
	Ranker    Ranker
	Objective Objective

	// PrimaryMetric is the metric single-objective explorers optimize
	// (default: the first metric).
	PrimaryMetric string

	// Parallelism is the number of trials evaluated concurrently
	// (default 1; with more, history-dependent explorers see whatever has
	// finished at proposal time, as in distributed Optuna).
	Parallelism int

	// Seed drives the explorer and derives per-trial seeds.
	Seed uint64

	// OnTrial, when set, is called once for every finished trial (in
	// completion order, serialized even when Parallelism > 1) — the hook
	// the journal package uses to persist campaigns. Trials interrupted
	// by context cancellation are never passed to OnTrial.
	OnTrial func(Trial)

	mu     sync.Mutex
	hookMu sync.Mutex
	trials []Trial
}

func (s *Study) validate() error {
	if s.Space == nil {
		return fmt.Errorf("core: study needs a parameter space")
	}
	if s.Explorer == nil {
		return fmt.Errorf("core: study needs an explorer")
	}
	if len(s.Metrics) == 0 {
		return fmt.Errorf("core: study needs at least one metric")
	}
	if s.Objective == nil {
		return fmt.Errorf("core: study needs an objective")
	}
	if s.Ranker == nil {
		return fmt.Errorf("core: study needs a ranker")
	}
	if s.PrimaryMetric == "" {
		s.PrimaryMetric = s.Metrics[0].Name
	}
	if !hasMetric(s.Metrics, s.PrimaryMetric) {
		return fmt.Errorf("core: primary metric %q is not in the metric list", s.PrimaryMetric)
	}
	return CheckMetricNames(s.Metrics)
}

// CheckMetricNames returns an error if a metric is unnamed or two share a
// name, the rule a Study is validated by.
func CheckMetricNames(metrics []Metric) error {
	seen := map[string]bool{}
	for _, m := range metrics {
		if m.Name == "" {
			return fmt.Errorf("core: unnamed metric")
		}
		if seen[m.Name] {
			return fmt.Errorf("core: duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

func hasMetric(metrics []Metric, name string) bool {
	for _, m := range metrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

func (s *Study) primary() Metric {
	for _, m := range s.Metrics {
		if m.Name == s.PrimaryMetric {
			return m
		}
	}
	return s.Metrics[0]
}

// history converts finished trials into explorer observations.
func (s *Study) history() []search.Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	prim := s.primary()
	out := make([]search.Observation, 0, len(s.trials))
	for _, t := range s.trials {
		obs := search.Observation{
			Assignment: t.Params,
			Maximize:   prim.Direction == pareto.Maximize,
			Pruned:     t.Pruned,
			Failed:     t.Err != nil,
		}
		if v, ok := t.Values.Get(prim.Name); ok {
			obs.Objective = v
		} else {
			obs.Failed = true
		}
		out = append(out, obs)
	}
	return out
}

// Resume seeds the study with previously finished trials (typically loaded
// from a journal) before Run/RunContext is called. Resumed trials count
// against the trial budget and are visible to the explorer as history;
// RunContext replays the explorer over their IDs and re-executes only the
// missing ones, so a campaign restarted with the same Seed and a
// deterministic explorer (Random Search, Grid Search) produces exactly the
// trials — and therefore the ranking — of an uninterrupted run.
//
// Resume checks the IDs (positive, none resumed or finished twice) and
// keeps the trials without copying them, so the caller must not modify
// them afterwards: the run copies them once, into a history sized for its
// budget.
func (s *Study) Resume(trials []Trial) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.trials)+len(trials))
	for _, ts := range [][]Trial{s.trials, trials} {
		for _, t := range ts {
			ids = append(ids, t.ID)
		}
	}
	slices.Sort(ids)
	if len(ids) > 0 && ids[0] <= 0 {
		return fmt.Errorf("core: resumed trial has invalid ID %d", ids[0])
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("core: duplicate resumed trial ID %d", ids[i])
		}
	}
	if len(s.trials) == 0 {
		// Capped: the first append to the history copies it.
		s.trials = trials[:len(trials):len(trials)]
	} else {
		s.trials = append(s.trials, trials...)
	}
	return nil
}

func sortTrialsByID(trials []Trial) {
	sort.Slice(trials, func(i, j int) bool { return trials[i].ID < trials[j].ID })
}

// Run executes up to nTrials trials and returns the study report. It stops
// early when the explorer is exhausted (e.g. a completed grid).
func (s *Study) Run(nTrials int) (*Report, error) {
	if err := s.RunContext(context.Background(), nTrials); err != nil {
		return nil, err
	}
	return s.report(), nil
}

// report ranks every finished trial, presented in ID order.
func (s *Study) report() *Report {
	s.mu.Lock()
	trials := append([]Trial(nil), s.trials...)
	s.mu.Unlock()
	// Present trials in ID order regardless of completion order.
	sortTrialsByID(trials)
	rep := &Report{
		CaseStudy: s.CaseStudy,
		Metrics:   s.Metrics,
		Trials:    trials,
		Explorer:  s.Explorer.Name(),
		Ranker:    s.Ranker.Name(),
	}
	rep.Ranking = s.Ranker.Rank(rep.completed(), s.Metrics)
	return rep
}

// RunContext is Run with cancellation, and without the report: a caller
// that keeps the trials (the daemon) takes each from OnTrial, and one that
// wants the ranking calls Run. When ctx is cancelled the study stops
// proposing trials, discards in-flight trials that observe the
// cancellation (through Recorder.Context), waits
// for the workers to drain, and returns ctx's error. Discarded trials are
// re-proposed on the next run when the study is reseeded with Resume,
// which is what makes campaigns crash-safe.
func (s *Study) RunContext(ctx context.Context, nTrials int) error {
	if err := s.validate(); err != nil {
		return err
	}
	if nTrials <= 0 {
		return fmt.Errorf("core: Run needs nTrials > 0")
	}
	workers := s.Parallelism
	if workers <= 0 {
		workers = 1
	}

	// The seed schedule is a pure function of s.Seed and the trial index,
	// so a resumed run rebuilds the exact per-trial seeds of the original.
	seeder := mathx.NewSeeder(s.Seed)
	explorerRng := seeder.NewRand()
	trialSeeds := make([]uint64, nTrials)
	for i := range trialSeeds {
		trialSeeds[i] = seeder.Next()
	}

	// The history grows to exactly nTrials entries; reserving it up front
	// copies the resumed trials once and keeps append from reallocating
	// mid-campaign.
	s.mu.Lock()
	if cap(s.trials) < nTrials {
		s.trials = append(make([]Trial, 0, nTrials), s.trials...)
	}
	finished := make([]bool, nTrials+1)
	for _, t := range s.trials {
		if t.ID > nTrials {
			s.mu.Unlock()
			return fmt.Errorf("core: resumed trial ID %d exceeds the %d-trial budget", t.ID, nTrials)
		}
		finished[t.ID] = true
	}
	s.mu.Unlock()

	jobs := make(chan Trial)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker reuses one Recorder/Trial slot and carves trial
			// metric storage from a private slab (see trialRunner).
			var tr trialRunner
			for t := range jobs {
				if ctx.Err() != nil {
					// Drained, not executed: the trial is re-proposed when
					// the campaign resumes.
					continue
				}
				s.runTrial(ctx, t, &tr)
			}
		}()
	}

	// History-free explorers (plain random search, grid) never read
	// the observation list, so skip the per-proposal O(n) conversion —
	// O(n²) over a campaign — entirely.
	historyFree := false
	if hf, ok := s.Explorer.(search.HistoryFree); ok {
		historyFree = hf.IgnoresHistory()
	}
	// In-place explorers propose straight into a slab: proposals are
	// retained for the study's lifetime (Trial.Params), so each dispatched
	// trial gets a cap-limited region and the slab cursor only advances
	// when the proposal is actually kept.
	inPlace, _ := s.Explorer.(search.InPlace)
	var pslab []param.Binding
	np := len(s.Space.Params())

	var spaceErr error
	for id := 1; id <= nTrials && ctx.Err() == nil; id++ {
		var hist []search.Observation
		if !historyFree {
			hist = s.history()
		}
		var a param.Assignment
		var ok bool
		if inPlace != nil {
			if len(pslab) < np {
				pslab = make([]param.Binding, slabTrials*np)
			}
			a, ok = inPlace.NextInto(explorerRng, s.Space, hist, param.Assignment(pslab[:0:np]))
		} else {
			a, ok = s.Explorer.Next(explorerRng, s.Space, hist)
		}
		if !ok {
			break // explorer exhausted
		}
		if !s.Space.Contains(a) {
			spaceErr = fmt.Errorf("core: explorer %s proposed an assignment outside the space: %s", s.Explorer.Name(), a)
			break
		}
		if finished[id] {
			// Replay: the proposal reproduces a trial that already finished
			// in a previous run; advance the explorer but skip execution
			// (the slab region, if any, is overwritten by the next draw).
			continue
		}
		t := Trial{ID: id, Params: a, Seed: trialSeeds[id-1]}
		select {
		case jobs <- t:
			if len(pslab) >= np && len(a) > 0 && &a[0] == &pslab[0] {
				pslab = pslab[np:]
			}
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
	if spaceErr != nil {
		return spaceErr
	}
	return ctx.Err()
}

// slabTrials is how many trials' worth of storage one slab chunk holds
// (both the proposal slab in RunContext and each worker's metric slab).
const slabTrials = 64

// trialRunner is one worker's reusable execution state: a Recorder and a
// Trial slot shared across the worker's trials — so neither escapes to
// the heap per trial — plus a metric-value slab that trial Values are
// carved from in cap-limited regions (a region can never grow into its
// neighbor: an append past the metric count reallocates).
type trialRunner struct {
	rec  Recorder
	slot Trial
	vals []MetricValue
}

// runTrial executes one trial and appends it to the study history.
func (s *Study) runTrial(ctx context.Context, t Trial, tr *trialRunner) {
	nm := len(s.Metrics)
	if cap(tr.vals) < nm {
		tr.vals = make([]MetricValue, slabTrials*nm)
	}
	t.Values = Values(tr.vals[:0:nm])
	tr.vals = tr.vals[nm:]
	tr.slot = t
	rec := &tr.rec
	rec.metrics = s.Metrics
	rec.trial = &tr.slot
	rec.ctx = ctx
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: objective panicked: %v", r)
			}
		}()
		return s.Objective(tr.slot.Params, tr.slot.Seed, rec)
	}()
	if ctx.Err() != nil {
		// Distinguish "failed" from "interrupted": a trial cut short by
		// cancellation is dropped entirely so resume re-runs it.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return
		}
	}
	if err != nil {
		tr.slot.Err = err
	}
	s.mu.Lock()
	s.trials = append(s.trials, tr.slot)
	hook := s.OnTrial
	s.mu.Unlock()
	if hook != nil {
		// Serialize the hook so journal consumers see one trial at a time
		// even under Parallelism > 1.
		s.hookMu.Lock()
		hook(tr.slot)
		s.hookMu.Unlock()
	}
}
