package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rldecide/internal/mathx"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/search"
)

func testSpace() *param.Space {
	return param.MustSpace(
		param.NewFloatRange("x", 0, 1),
		param.NewFloatRange("y", 0, 1),
	)
}

// twoObjective records two antagonistic metrics: cost = x, quality = 1-x+y.
func twoObjective(a param.Assignment, seed uint64, rec *Recorder) error {
	x, y := a.Value("x").Float(), a.Value("y").Float()
	rec.Report("cost", x)
	rec.Report("quality", 1-x+0.1*y)
	return nil
}

func metrics() []Metric {
	return []Metric{
		{Name: "quality", Unit: "", Direction: pareto.Maximize},
		{Name: "cost", Unit: "s", Direction: pareto.Minimize},
	}
}

func newStudy() *Study {
	return &Study{
		CaseStudy: CaseStudy{Name: "toy", Description: "antagonistic quality/cost"},
		Space:     testSpace(),
		Explorer:  search.RandomSearch{},
		Metrics:   metrics(),
		Ranker:    ParetoRanker{},
		Objective: twoObjective,
		Seed:      1,
	}
}

func TestStudyRunBasics(t *testing.T) {
	s := newStudy()
	rep, err := s.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 20 {
		t.Fatalf("trials=%d", len(rep.Trials))
	}
	for i, tr := range rep.Trials {
		if tr.ID != i+1 {
			t.Fatalf("trial order broken at %d: id=%d", i, tr.ID)
		}
		if tr.Err != nil {
			t.Fatalf("trial %d failed: %v", tr.ID, tr.Err)
		}
		if len(tr.Values) != 2 {
			t.Fatalf("trial %d values %v", tr.ID, tr.Values)
		}
	}
	if rep.Explorer != "random" || rep.Ranker != "pareto" {
		t.Fatalf("report metadata %q %q", rep.Explorer, rep.Ranker)
	}
	if len(rep.Ranking.Fronts) == 0 {
		t.Fatal("no fronts")
	}
}

func TestStudyDeterministic(t *testing.T) {
	a, err := newStudy().Run(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newStudy().Run(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trials {
		if a.Trials[i].Params.Key() != b.Trials[i].Params.Key() {
			t.Fatal("same seed diverged")
		}
		if a.Trials[i].Values.At("cost") != b.Trials[i].Values.At("cost") {
			t.Fatal("values diverged")
		}
	}
}

func TestStudyParallelCompletesAll(t *testing.T) {
	s := newStudy()
	s.Parallelism = 4
	rep, err := s.Run(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 32 {
		t.Fatalf("parallel run lost trials: %d", len(rep.Trials))
	}
	ids := map[int]bool{}
	for _, tr := range rep.Trials {
		ids[tr.ID] = true
	}
	if len(ids) != 32 {
		t.Fatal("duplicate or missing trial ids")
	}
}

func TestValidation(t *testing.T) {
	cases := map[string]func(*Study){
		"no-space":    func(s *Study) { s.Space = nil },
		"no-explorer": func(s *Study) { s.Explorer = nil },
		"no-metrics":  func(s *Study) { s.Metrics = nil },
		"no-ranker":   func(s *Study) { s.Ranker = nil },
		"no-obj":      func(s *Study) { s.Objective = nil },
		"bad-primary": func(s *Study) { s.PrimaryMetric = "nope" },
		"dup-metric": func(s *Study) {
			s.Metrics = []Metric{{Name: "a"}, {Name: "a"}}
		},
	}
	for name, mutate := range cases {
		s := newStudy()
		mutate(s)
		if _, err := s.Run(1); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	s := newStudy()
	if _, err := s.Run(0); err == nil {
		t.Error("zero trials should error")
	}
}

func TestObjectiveErrorsAndPanicsAreCaptured(t *testing.T) {
	s := newStudy()
	n := 0
	s.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		n++
		switch n {
		case 1:
			return fmt.Errorf("boom")
		case 2:
			panic("kaboom")
		default:
			rec.Report("cost", 1)
			rec.Report("quality", 1)
			return nil
		}
	}
	rep, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, tr := range rep.Trials {
		if tr.Err != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("failed=%d want 2", failed)
	}
	if len(rep.Completed()) != 1 {
		t.Fatalf("completed=%d want 1", len(rep.Completed()))
	}
}

func TestUnknownMetricPanics(t *testing.T) {
	s := newStudy()
	s.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		rec.Report("nope", 1)
		return nil
	}
	rep, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials[0].Err == nil {
		t.Fatal("reporting an unknown metric should fail the trial")
	}
}

func TestGridExhaustionStopsEarly(t *testing.T) {
	s := newStudy()
	s.Space = param.MustSpace(param.NewIntSet("x", 1, 2), param.NewIntSet("y", 1, 2))
	s.Explorer = &search.GridSearch{}
	s.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		rec.Report("cost", a.Value("x").Float())
		rec.Report("quality", a.Value("y").Float())
		return nil
	}
	rep, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 4 {
		t.Fatalf("grid should stop at 4 trials, got %d", len(rep.Trials))
	}
}

func TestReportHelpers(t *testing.T) {
	s := newStudy()
	rep, err := s.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := rep.Best("quality")
	if !ok {
		t.Fatal("no best")
	}
	for _, tr := range rep.Completed() {
		if tr.Values.At("quality") > best.Values.At("quality") {
			t.Fatal("Best is not best")
		}
	}
	if _, ok := rep.Best("nope"); ok {
		t.Fatal("unknown metric Best should fail")
	}

	pts, dirs, err := rep.Points("cost", "quality")
	if err != nil || len(pts) != len(rep.Completed()) || len(dirs) != 2 {
		t.Fatalf("Points: %v %d", err, len(pts))
	}
	if _, _, err := rep.Points("nope"); err == nil {
		t.Fatal("unknown metric Points should fail")
	}

	ids, err := rep.FrontIDs(0, "cost", "quality")
	if err != nil || len(ids) == 0 {
		t.Fatalf("FrontIDs: %v %v", err, ids)
	}
	// ε-front must be a superset.
	eids, err := rep.FrontIDs(0.05, "cost", "quality")
	if err != nil {
		t.Fatal(err)
	}
	super := map[int]bool{}
	for _, id := range eids {
		super[id] = true
	}
	for _, id := range ids {
		if !super[id] {
			t.Fatal("eps front lost a strict-front member")
		}
	}
}

func TestSortedRanker(t *testing.T) {
	trials := []Trial{
		{ID: 1, Values: ValuesFromMap(map[string]float64{"m": 3})},
		{ID: 2, Values: ValuesFromMap(map[string]float64{"m": 1})},
		{ID: 3, Values: ValuesFromMap(map[string]float64{"m": 2})},
	}
	ms := []Metric{{Name: "m", Direction: pareto.Minimize}}
	rk := SortedRanker{By: "m"}.Rank(trials, ms)
	if rk.Ordered[0] != 1 || rk.Ordered[1] != 2 || rk.Ordered[2] != 0 {
		t.Fatalf("sorted order %v", rk.Ordered)
	}
	msMax := []Metric{{Name: "m", Direction: pareto.Maximize}}
	rk = SortedRanker{}.Rank(trials, msMax)
	if rk.Ordered[0] != 0 {
		t.Fatalf("max order %v", rk.Ordered)
	}
}

func TestParetoRankerEps(t *testing.T) {
	trials := []Trial{
		{ID: 1, Values: ValuesFromMap(map[string]float64{"q": 1.00, "c": 100})},
		{ID: 2, Values: ValuesFromMap(map[string]float64{"q": 0.99, "c": 101})}, // near-tie
		{ID: 3, Values: ValuesFromMap(map[string]float64{"q": 0.2, "c": 300})},
	}
	ms := []Metric{
		{Name: "q", Direction: pareto.Maximize},
		{Name: "c", Direction: pareto.Minimize},
	}
	strict := ParetoRanker{}.Rank(trials, ms)
	if len(strict.Fronts[0]) != 1 {
		t.Fatalf("strict front %v", strict.Fronts[0])
	}
	loose := ParetoRanker{Eps: 0.05}.Rank(trials, ms)
	if len(loose.Fronts[0]) != 2 {
		t.Fatalf("eps front %v", loose.Fronts[0])
	}
}

// TestParetoRankerCoversEachTrialOnce: the fronts partition the ranked
// trials with and without the ε-widening of front 0 (which once left the
// promoted trials in their strict fronts too), each front ascending, and a
// diverged trial's NaN metric keeps it off front 0.
func TestParetoRankerCoversEachTrialOnce(t *testing.T) {
	ms := []Metric{
		{Name: "q", Direction: pareto.Maximize},
		{Name: "c", Direction: pareto.Minimize},
	}
	rng := mathx.NewRand(3)
	trials := make([]Trial, 200)
	for i := range trials {
		// Correlated metrics with a little noise: many near-ties, so the
		// ε-front promotes trials out of several strict fronts.
		x := rng.Float64()
		trials[i] = Trial{ID: i, Values: ValuesFromMap(map[string]float64{"q": x + 0.02*rng.Float64(), "c": 100 * (x + 0.02*rng.Float64())})}
	}
	const diverged = 17
	trials[diverged].Values = ValuesFromMap(map[string]float64{"q": math.NaN(), "c": 1000})
	for _, eps := range []float64{0, 0.05} {
		fronts := ParetoRanker{Eps: eps}.Rank(trials, ms).Fronts
		seen := make([]int, len(trials))
		for k, front := range fronts {
			if len(front) == 0 {
				t.Fatalf("eps %v: front %d is empty", eps, k)
			}
			for j, i := range front {
				seen[i]++
				if j > 0 && front[j-1] >= i {
					t.Fatalf("eps %v: front %d not ascending: %v", eps, k, front)
				}
				if k == 0 && i == diverged {
					t.Fatalf("eps %v: the NaN trial is on front 0", eps)
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("eps %v: trial %d appears in %d fronts", eps, i, c)
			}
		}
		if eps > 0 {
			strict := ParetoRanker{}.Rank(trials, ms).Fronts
			if len(fronts[0]) <= len(strict[0]) {
				t.Fatalf("eps %v promoted nothing: front 0 has %d trials, strict %d", eps, len(fronts[0]), len(strict[0]))
			}
		}
	}
}

func TestNaNObjectiveStillRecorded(t *testing.T) {
	s := newStudy()
	s.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		rec.Report("cost", math.NaN())
		rec.Report("quality", 1)
		return nil
	}
	rep, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(rep.Trials[0].Values.At("cost")) {
		t.Fatal("NaN lost")
	}
}

// TestRunContextCancelKeepsPartialTrials: a cancelled run returns ctx's
// error and keeps every trial that finished, none of the interrupted ones
// recorded as failed.
func TestRunContextCancelKeepsPartialTrials(t *testing.T) {
	s := newStudy()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var executed atomic.Int32
	s.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		executed.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		if executed.Load() > 3 {
			// Later trials wait on the context like a real training job.
			<-rec.Context().Done()
			return rec.Context().Err()
		}
		rec.Report("cost", a.Value("x").Float())
		rec.Report("quality", 1)
		return nil
	}
	done := make(chan struct{})
	var runErr error
	go func() {
		runErr = s.RunContext(ctx, 100)
		close(done)
	}()
	<-started
	for executed.Load() <= 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err=%v want context.Canceled", runErr)
	}
	rep := s.report()
	if len(rep.Trials) == 0 || len(rep.Trials) >= 100 {
		t.Fatalf("partial trials=%d", len(rep.Trials))
	}
	for _, tr := range rep.Trials {
		if tr.Err != nil {
			t.Fatalf("interrupted trial leaked into the report as failed: %v", tr.Err)
		}
	}
}

// TestCancelledTrialIsDiscarded: an objective that stops on its
// Recorder.Context and returns the (wrapped) cancellation is neither
// recorded nor passed to OnTrial, so a resumed campaign runs it again.
func TestCancelledTrialIsDiscarded(t *testing.T) {
	s := newStudy()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recorded := false
	s.OnTrial = func(Trial) { recorded = true }
	s.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		<-rec.Context().Done()
		return fmt.Errorf("training stopped: %w", rec.Context().Err())
	}
	// The proposal loop observes the cancelled context before submitting
	// anything, so drive runTrial directly.
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	s.runTrial(ctx, Trial{ID: 1, Params: testSpace().Sample(mathxRand(1))}, &trialRunner{})
	if recorded {
		t.Fatal("interrupted trial must not reach OnTrial")
	}
	if len(s.trials) != 0 {
		t.Fatalf("interrupted trial recorded: %v", s.trials)
	}
}

func mathxRand(seed uint64) *rand.Rand { return mathx.NewRand(seed) }

// TestResumeReproducesUninterruptedRun is the determinism core of campaign
// resume: running 10 trials, seeding a fresh study with them, and finishing
// to 20 must yield exactly the trials and front of a straight 20-trial run.
func TestResumeReproducesUninterruptedRun(t *testing.T) {
	full, err := newStudy().Run(20)
	if err != nil {
		t.Fatal(err)
	}

	half, err := newStudy().Run(10)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newStudy()
	var executed []int
	var mu sync.Mutex
	inner := resumed.Objective
	resumed.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		mu.Lock()
		executed = append(executed, 1)
		mu.Unlock()
		return inner(a, seed, rec)
	}
	if err := resumed.Resume(half.Trials); err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 10 {
		t.Fatalf("resume re-executed finished trials: %d executions, want 10", len(executed))
	}
	if len(rep.Trials) != 20 {
		t.Fatalf("resumed run has %d trials", len(rep.Trials))
	}
	for i := range rep.Trials {
		a, b := rep.Trials[i], full.Trials[i]
		if a.ID != b.ID || a.Params.Key() != b.Params.Key() || a.Seed != b.Seed {
			t.Fatalf("trial %d diverged: %+v vs %+v", i, a, b)
		}
		if a.Values.At("cost") != b.Values.At("cost") || a.Values.At("quality") != b.Values.At("quality") {
			t.Fatalf("trial %d values diverged", i)
		}
	}
	fullFront, _ := full.FrontIDs(0, "cost", "quality")
	resFront, _ := rep.FrontIDs(0, "cost", "quality")
	if fmt.Sprint(fullFront) != fmt.Sprint(resFront) {
		t.Fatalf("fronts diverged: %v vs %v", fullFront, resFront)
	}
}

// TestResumeWithGap covers the parallel-crash shape: trials 1 and 3 were
// journaled, trial 2 was in flight and lost. Resume must re-execute only
// trial 2 (and the remainder) with its original parameters.
func TestResumeWithGap(t *testing.T) {
	full, err := newStudy().Run(5)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newStudy()
	if err := resumed.Resume([]Trial{full.Trials[0], full.Trials[2]}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	executedIDs := map[string]bool{}
	inner := resumed.Objective
	resumed.Objective = func(a param.Assignment, seed uint64, rec *Recorder) error {
		mu.Lock()
		executedIDs[a.Key()] = true
		mu.Unlock()
		return inner(a, seed, rec)
	}
	rep, err := resumed.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 5 {
		t.Fatalf("trials=%d", len(rep.Trials))
	}
	if len(executedIDs) != 3 {
		t.Fatalf("executions=%d want 3 (trials 2, 4, 5)", len(executedIDs))
	}
	if executedIDs[full.Trials[0].Params.Key()] || executedIDs[full.Trials[2].Params.Key()] {
		t.Fatal("finished trial re-executed")
	}
	if !executedIDs[full.Trials[1].Params.Key()] {
		t.Fatal("lost trial 2 was not re-executed")
	}
	for i := range rep.Trials {
		if rep.Trials[i].Params.Key() != full.Trials[i].Params.Key() {
			t.Fatalf("trial %d params diverged after gap resume", i+1)
		}
	}
}

func TestResumeRejectsBadTrials(t *testing.T) {
	s := newStudy()
	if err := s.Resume([]Trial{{ID: 0}}); err == nil {
		t.Fatal("ID 0 must be rejected")
	}
	if err := s.Resume([]Trial{{ID: 1}, {ID: 1}}); err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
	if err := s.Resume([]Trial{{ID: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume([]Trial{{ID: 2}}); err == nil {
		t.Fatal("cross-call duplicate IDs must be rejected")
	}
	if _, err := s.Run(1); err == nil {
		t.Fatal("resumed ID beyond budget must fail the run")
	}
}
