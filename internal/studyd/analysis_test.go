package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rldecide/internal/analysis"
)

// steerSpec is a tiny steer-ppo study: enough training to be a real RL
// trial, small enough to keep the suite fast.
func steerSpec() Spec {
	return Spec{
		Name: "steer",
		Params: []ParamSpec{
			{Name: "lr", Type: "floatrange", Lo: 1e-3, Hi: 1e-2, Log: true},
			{Name: "hidden", Type: "intset", Ints: []int{4, 8}},
			{Name: "steps", Type: "intset", Ints: []int{128}},
		},
		Explorer: ExplorerSpec{Type: "random"},
		Metrics: []MetricSpec{
			{Name: "return", Direction: "max"},
			{Name: "compute", Direction: "min"},
		},
		Objective:   "steer-ppo",
		Budget:      4,
		Parallelism: 2,
		Seed:        11,
	}
}

// runSteer executes the spec on a fresh daemon with the given analysis
// setting and returns the daemon and finished study.
func runSteer(t *testing.T, dir string, analysisOn bool) (*Daemon, *ManagedStudy) {
	t.Helper()
	d, err := New(Config{Dir: dir, Workers: 4, Trace: analysisOn, Analysis: analysisOn, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Submit(steerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)
	return d, m
}

// TestAnalysisOffResultPath is the replay-contract gate for the analysis
// subsystem: the same campaign run with trajectory recording (and
// tracing) on and off must journal byte-identical trials and serve
// byte-identical fronts. Recording is observation, never input.
func TestAnalysisOffResultPath(t *testing.T) {
	dOn, mOn := runSteer(t, t.TempDir(), true)
	dOff, mOff := runSteer(t, t.TempDir(), false)

	recOn := canonicalRecords(t, mOn)
	recOff := canonicalRecords(t, mOff)
	if !bytes.Equal(recOn, recOff) {
		t.Fatalf("journals diverge with analysis on/off:\non:  %s\noff: %s", recOn, recOff)
	}
	frontOn, err := mOn.Front()
	if err != nil {
		t.Fatal(err)
	}
	frontOff, err := mOff.Front()
	if err != nil {
		t.Fatal(err)
	}
	jOn, _ := json.Marshal(frontOn)
	jOff, _ := json.Marshal(frontOff)
	if !bytes.Equal(jOn, jOff) {
		t.Fatalf("fronts diverge with analysis on/off:\non:  %s\noff: %s", jOn, jOff)
	}

	// The side effects land exactly where promised: a trajectory journal
	// with recording on, nothing with it off.
	if _, err := os.Stat(dOn.trajPath(mOn.ID)); err != nil {
		t.Fatalf("analysis on: no trajectory journal: %v", err)
	}
	if _, err := os.Stat(dOff.trajPath(mOff.ID)); !os.IsNotExist(err) {
		t.Fatalf("analysis off: unexpected trajectory journal (err=%v)", err)
	}
}

// TestTrajectoryJournalClosedWhenDone: a study's trajectory journal is
// open while the study runs, not until the daemon shuts down.
func TestTrajectoryJournalClosedWhenDone(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list this process's descriptors")
	}
	d, m := runSteer(t, t.TempDir(), true)
	// Shutdown closes whatever is still open, so it must come after the
	// check; deferring it also keeps the daemon, and so any file it holds,
	// from being collected and finalized while the test polls.
	defer d.Shutdown(context.Background())
	path, err := filepath.EvalSymlinks(d.trajPath(m.ID))
	if err != nil {
		t.Fatal(err)
	}
	isOpen := func() bool {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
				return true
			}
		}
		return false
	}
	// The run ends (StatusDone) just before its goroutine closes the file.
	for deadline := time.Now().Add(5 * time.Second); isOpen(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s is still open 5 s after its study finished", path)
		}
	}
}

// TestAnalysisEndpoints drives all three analysis kinds over the HTTP
// API against a really recorded study and checks the sidecar cache.
func TestAnalysisEndpoints(t *testing.T) {
	dir := t.TempDir()
	d, m := runSteer(t, dir, true)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	get := func(kind string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/studies/" + m.ID + "/analysis/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	// Traces: the daemon ran with -trace, so spans exist for the study.
	// The tracer drains the bus asynchronously — wait for all four trial
	// spans to reach disk before asserting on the report.
	deadline := time.Now().Add(10 * time.Second)
	for {
		events, _ := analysis.ReadTrace(d.tracePath)
		if analysis.AnalyzeTrace(events, analysis.TraceOptions{Study: m.ID}).Trials.Count == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace stream never recorded 4 finished trials")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, body := get(AnalysisTraces)
	if code != http.StatusOK {
		t.Fatalf("traces: %d: %s", code, body)
	}
	var trep analysis.TraceReport
	if err := json.Unmarshal(body, &trep); err != nil {
		t.Fatal(err)
	}
	if trep.Trials.Count != 4 {
		t.Fatalf("trace report counted %d trials, want 4: %s", trep.Trials.Count, body)
	}

	// Attribution over the recorded trajectories.
	code, body = get(AnalysisAttribution)
	if code != http.StatusOK {
		t.Fatalf("attribution: %d: %s", code, body)
	}
	var arep analysis.AttributionReport
	if err := json.Unmarshal(body, &arep); err != nil {
		t.Fatal(err)
	}
	if arep.Episodes != 4*8 {
		t.Fatalf("attribution saw %d episodes, want 32", arep.Episodes)
	}

	// Counterfactuals branch from the recorded snapshots.
	code, body = get(AnalysisCounterfactuals)
	if code != http.StatusOK {
		t.Fatalf("counterfactuals: %d: %s", code, body)
	}
	var crep analysis.CounterfactualReport
	if err := json.Unmarshal(body, &crep); err != nil {
		t.Fatal(err)
	}
	if crep.Points == 0 || len(crep.Top) == 0 {
		t.Fatalf("counterfactual report has no decision points: %s", body)
	}

	// The sidecar cache exists and a repeated request serves the same
	// bytes from it.
	for _, kind := range []string{AnalysisTraces, AnalysisAttribution, AnalysisCounterfactuals} {
		if _, err := os.Stat(analysis.CachePath(dir, m.ID, kind)); err != nil {
			t.Errorf("no %s sidecar cache: %v", kind, err)
		}
	}
	_, again := get(AnalysisCounterfactuals)
	if !bytes.Equal(body, again) {
		t.Fatalf("cached counterfactual report differs from computed one")
	}

	// Unknown kinds and unknown studies are 404s.
	if code, _ := get("vibes"); code != http.StatusNotFound {
		t.Fatalf("unknown kind: got %d, want 404", code)
	}
	resp, err := http.Get(srv.URL + "/studies/nope/analysis/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown study: got %d, want 404", resp.StatusCode)
	}

	// A study without recorded trajectories reports 404 with a hint, not
	// a 500.
	if err := os.Remove(filepath.Join(dir, m.ID+".trajectories.jsonl")); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{AnalysisAttribution, AnalysisCounterfactuals} {
		if err := os.Remove(analysis.CachePath(dir, m.ID, kind)); err != nil {
			t.Fatal(err)
		}
	}
	if code, body := get(AnalysisAttribution); code != http.StatusNotFound {
		t.Fatalf("attribution without trajectories: got %d (%s), want 404", code, body)
	}
}
