package studyd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
)

// TestObsOnOffDeterminism is the observability acceptance cross-check:
// the same spec + seed run on a tracing daemon and on a plain one must
// produce identical journals (modulo the informational worker/wall_ms
// fields) and the same Pareto front — instrumentation stays off the
// result path.
func TestObsOnOffDeterminism(t *testing.T) {
	spec := baseSpec("sphere")
	spec.Parallelism = 3
	spec.Noise = 0.1

	run := func(trace bool) (*ManagedStudy, string) {
		dir := t.TempDir()
		d, err := New(Config{Dir: dir, Workers: 4, Trace: trace, Logf: testLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
		m, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, StatusDone)
		return m, dir
	}

	traced, tracedDir := run(true)
	plain, _ := run(false)

	if got, want := canonicalRecords(t, traced), canonicalRecords(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("journals diverge with tracing enabled:\n--- traced ---\n%s--- plain ---\n%s", got, want)
	}
	tf, err := traced.Front()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := plain.Front()
	if err != nil {
		t.Fatal(err)
	}
	tj, _ := json.Marshal(tf)
	pj, _ := json.Marshal(pf)
	if !bytes.Equal(tj, pj) {
		t.Fatalf("Pareto fronts diverge:\n%s\n%s", tj, pj)
	}

	// The journal on disk must carry real wall-clock timings (the field is
	// informational but it has to be THERE, and positive, on both daemons).
	recs := readStudyJournal(t, tracedDir, traced.ID)
	for _, r := range recs {
		if r.WallMs <= 0 {
			t.Fatalf("trial %d journaled without wall-clock timing: %+v", r.ID, r)
		}
	}
}

// readStudyJournal loads <id>.trials.jsonl from a daemon state dir.
func readStudyJournal(t *testing.T, dir, id string) []journalRecord {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, id+".trials.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r journalRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// journalRecord is the thin view of a journal line this test needs.
type journalRecord struct {
	ID     int     `json:"id"`
	Worker string  `json:"worker"`
	WallMs float64 `json:"wall_ms"`
}

// TestTraceStreamWrittenAlongsideJournal verifies the Trace flag produces
// a JSONL event stream in the state directory covering the whole study
// lifecycle: study start/done bracketing per-trial announcements and
// exactly one "trial" span per trial, in monotonically increasing
// sequence order. Dispatch attempts are spans, never event pairs.
func TestTraceStreamWrittenAlongsideJournal(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 2, Trace: true, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	spec := baseSpec("sphere")
	spec.Budget = 4
	m, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatalf("trace stream missing: %v", err)
	}
	defer f.Close()
	counts := map[string]int{}
	trialSpans := map[int]int{}
	var lastSeq uint64
	dec := json.NewDecoder(f)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("trace sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Study != "" && ev.Study != m.ID {
			t.Fatalf("trace event for unknown study: %+v", ev)
		}
		counts[ev.Kind]++
		if ev.Kind == obs.KindSpan && ev.Name == span.NameTrial {
			trialSpans[ev.Trial]++
		}
	}
	if counts[obs.KindStudyStart] != 1 || counts[obs.KindStudyDone] != 1 {
		t.Fatalf("study lifecycle events: %v", counts)
	}
	if counts[obs.KindTrialStart] != spec.Budget || counts[obs.KindTrialDone] != spec.Budget {
		t.Fatalf("trial events do not cover the budget: %v", counts)
	}
	if counts["dispatch"] != 0 || counts["dispatch_done"] != 0 {
		t.Fatalf("dispatch event pairs on the trace stream: %v", counts)
	}
	if len(trialSpans) != spec.Budget {
		t.Fatalf("trial spans cover %d of %d trials: %v", len(trialSpans), spec.Budget, trialSpans)
	}
	for id, n := range trialSpans {
		if n != 1 {
			t.Fatalf("trial %d has %d trial spans, want 1", id, n)
		}
	}
}

// TestDaemonMetricsEndpoint scrapes the API /metrics route and checks the
// daemon-level series are exposed alongside the process-wide ones.
func TestDaemonMetricsEndpoint(t *testing.T) {
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

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// Process-global counters accumulate across tests sharing obs.Default,
	// so assert presence, not values; the per-daemon status gauge is fresh
	// and can be matched exactly.
	for _, series := range []string{
		"rldecide_studyd_studies_submitted_total",
		"rldecide_studyd_trials_finished_total",
		"rldecide_studyd_trial_seconds_bucket",
		`rldecide_studyd_studies{status="done"} 1`,
		"rldecide_studyd_queue_depth",
		"rldecide_journal_appends_total",
		"rldecide_fleet_workers",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing series %q in exposition:\n%s", series, text)
		}
	}
}
