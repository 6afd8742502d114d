package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rldecide/internal/analysis"
	"rldecide/internal/executor"
	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
)

// fleetDaemon starts a fleet-mode daemon on cfg (Dir, Exec and Logf are
// filled in), serves its API, and registers the given workers.
func fleetDaemon(t *testing.T, cfg Config, workers ...executor.WorkerInfo) (*Daemon, *httptest.Server) {
	t.Helper()
	cfg.Dir, cfg.Exec, cfg.Logf = t.TempDir(), ExecFleet, testLogf(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	for _, info := range workers {
		if _, err := d.Fleet().Upsert(info); err != nil {
			t.Fatal(err)
		}
	}
	return d, ts
}

// twoWorkers starts fleet workers w1 and w2 with two slots each; eval
// overrides w1's evaluator when non-nil.
func twoWorkers(t *testing.T, eval executor.EvalFunc) []executor.WorkerInfo {
	t.Helper()
	_, w1 := startFleetWorker(t, "w1", 2, eval, "")
	_, w2 := startFleetWorker(t, "w2", 2, nil, "")
	return []executor.WorkerInfo{w1, w2}
}

// TestSpansOnOffDeterminism is the causal-tracing acceptance cross-check:
// the same spec + seed run on a traced fleet daemon — dispatch spans, span
// headers to the workers, worker spans riding back in results — and on a
// plain one must produce identical journals (modulo the informational
// worker/wall_ms fields) and the same Pareto front — span trees stay off
// the result path.
func TestSpansOnOffDeterminism(t *testing.T) {
	spec := baseSpec("sphere")
	spec.Parallelism = 3
	spec.Noise = 0.1

	run := func(trace bool) *ManagedStudy {
		d, _ := fleetDaemon(t, Config{Trace: trace}, twoWorkers(t, nil)...)
		m, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, StatusDone)
		return m
	}

	spanned := run(true)
	plain := run(false)

	if got, want := canonicalRecords(t, spanned), canonicalRecords(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("journals diverge with spans enabled:\n--- spanned ---\n%s--- plain ---\n%s", got, want)
	}
	sf, err := spanned.Front()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := plain.Front()
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(sf)
	pj, _ := json.Marshal(pf)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("Pareto fronts diverge:\n%s\n%s", sj, pj)
	}
}

// fetchSpanTree GETs /studies/{id}/spans and decodes the tree.
func fetchSpanTree(t *testing.T, url, id string) SpanTree {
	t.Helper()
	resp, err := http.Get(url + "/studies/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /spans: %d", resp.StatusCode)
	}
	var tree SpanTree
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestFleetSpanTree runs a spanned fleet campaign and checks the served
// span tree stitches every hop — daemon scheduling, dispatch RTT, the
// worker-side run + objective execution, and journal appends — under one
// deterministically derived trace ID with worker attribution intact.
func TestFleetSpanTree(t *testing.T) {
	d, ts := fleetDaemon(t, Config{Trace: true}, twoWorkers(t, nil)...)

	spec := baseSpec("sphere")
	spec.Parallelism = 2
	m, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)

	tree := fetchSpanTree(t, ts.URL, m.ID)
	if tree.Study != m.ID {
		t.Fatalf("tree study = %q, want %q", tree.Study, m.ID)
	}
	if want := span.DeriveTrace(m.ID); tree.Trace != want {
		t.Fatalf("trace ID %q not derived from study ID (want %q)", tree.Trace, want)
	}
	if tree.Dropped != 0 {
		t.Fatalf("collector dropped %d spans", tree.Dropped)
	}
	spans := span.Flatten(tree.Spans)
	if tree.Count != len(spans) {
		t.Fatalf("count %d does not match %d flattened spans", tree.Count, len(spans))
	}

	counts := map[string]int{}
	runWorkers := map[string]int{}
	dispatchIDs := map[string]bool{}
	for _, sp := range spans {
		if sp.Name == span.NameDispatch {
			dispatchIDs[sp.ID] = true
		}
	}
	for _, sp := range spans {
		if sp.Trace != tree.Trace {
			t.Fatalf("span %q carries foreign trace %q", sp.ID, sp.Trace)
		}
		counts[sp.Name]++
		switch sp.Name {
		case span.NameRun:
			runWorkers[sp.Worker]++
			// Worker-side spans must parent into one of the daemon's
			// dispatch spans — the propagated header.
			if !dispatchIDs[sp.Parent] {
				t.Fatalf("run span parent %q is not a dispatch span", sp.Parent)
			}
		case span.NameObjective:
			if sp.Worker == "" {
				t.Fatalf("fleet objective span lost worker attribution: %+v", sp)
			}
		}
	}
	if counts[span.NameStudy] != 1 {
		t.Fatalf("want exactly one study root, got %v", counts)
	}
	for _, name := range []string{span.NameTrial, span.NameDispatch, span.NameRun, span.NameObjective, span.NameJournal} {
		if counts[name] < spec.Budget {
			t.Fatalf("span kind %q covers %d of %d trials: %v", name, counts[name], spec.Budget, counts)
		}
	}
	if runWorkers["w1"]+runWorkers["w2"] < spec.Budget || runWorkers[""] > 0 {
		t.Fatalf("run spans not attributed to fleet workers: %v", runWorkers)
	}

	// The tree itself must nest: study root → trial → dispatch → run →
	// objective, proving the parent links resolve rather than orphaning.
	if len(tree.Spans) != 1 {
		t.Fatalf("expected a single root, got %d", len(tree.Spans))
	}
	var deepest func(n *span.Node) int
	deepest = func(n *span.Node) int {
		d := 0
		for _, c := range n.Children {
			if cd := deepest(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	if depth := deepest(tree.Spans[0]); depth < 4 {
		// study → trial → dispatch → run → objective.
		t.Fatalf("tree too shallow (%d levels): span hops did not link", depth)
	}
}

// TestSpansDisabledServesEmptyTree checks the endpoint stays up — and
// empty — on a daemon without -trace, rather than 404ing.
func TestSpansDisabledServesEmptyTree(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	m, err := d.Submit(baseSpec("sphere"))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)

	tree := fetchSpanTree(t, ts.URL, m.ID)
	if tree.Count != 0 || len(tree.Spans) != 0 {
		t.Fatalf("spanless daemon served spans: %+v", tree)
	}
	if tree.Spans == nil {
		t.Fatal("spans must serialize as [], not null")
	}
}

// TestFleetTraceAnalysisFromSpans drives the traces report end to end on
// a traced fleet campaign whose first dispatch attempt fails: every trial
// counts once, every dispatch attempt counts once (matching the dispatch
// spans served at /spans), and every critical-path row names its worker.
func TestFleetTraceAnalysisFromSpans(t *testing.T) {
	var faulted atomic.Bool
	flaky := func(ctx context.Context, req executor.TrialRequest) (executor.TrialResult, error) {
		if faulted.CompareAndSwap(false, true) {
			return executor.TrialResult{}, errors.New("injected worker fault")
		}
		return EvaluateRequest(ctx, req)
	}
	// Free slots tie at the first lease and name order breaks the tie, so
	// the first attempt lands on the flaky w1.
	d, ts := fleetDaemon(t, Config{Trace: true, Fleet: executor.FleetOptions{Backoff: time.Millisecond}},
		twoWorkers(t, flaky)...)
	spec := baseSpec("sphere")
	spec.Parallelism = 2
	m, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)

	// Every span of the study is published before its study_done
	// announcement; wait for the tracer to put that on disk.
	deadline := time.Now().Add(10 * time.Second)
	for !traceHas(d.tracePath, obs.KindStudyDone, m.ID) {
		if time.Now().After(deadline) {
			t.Fatal("study_done never reached the trace stream")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var rep analysis.TraceReport
	if code := getJSON(t, ts.URL+"/studies/"+m.ID+"/analysis/traces", &rep); code != http.StatusOK {
		t.Fatalf("traces report: %d", code)
	}
	dispatches, failed := 0, 0
	for _, sp := range span.Flatten(fetchSpanTree(t, ts.URL, m.ID).Spans) {
		if sp.Name == span.NameDispatch {
			dispatches++
			if sp.Status == "error" {
				failed++
			}
		}
	}
	if failed != 1 || dispatches != spec.Budget+1 {
		t.Fatalf("served %d dispatch spans (%d failed), want %d with 1 failed", dispatches, failed, spec.Budget+1)
	}
	if rep.Trials.Count != spec.Budget {
		t.Fatalf("report counted %d trials, want %d", rep.Trials.Count, spec.Budget)
	}
	if rep.Dispatches.Count != dispatches {
		t.Fatalf("report counted %d dispatches, /spans served %d", rep.Dispatches.Count, dispatches)
	}
	if len(rep.CriticalPath) != spec.Budget {
		t.Fatalf("critical path has %d rows, want %d", len(rep.CriticalPath), spec.Budget)
	}
	for _, pb := range rep.CriticalPath {
		if pb.Worker == "" {
			t.Fatalf("critical-path row without a worker: %+v", pb)
		}
	}
}

// traceHas reports whether the trace stream at path holds an event of the
// given kind for study.
func traceHas(path, kind, study string) bool {
	events, _ := analysis.ReadTrace(path)
	for _, ev := range events {
		if ev.Kind == kind && ev.Study == study {
			return true
		}
	}
	return false
}
