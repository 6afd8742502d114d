package studyd

import (
	"context"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"rldecide/internal/analysis"
	"rldecide/internal/journal"
)

// traceReport fetches the study's trace analysis over the daemon's API.
func traceReport(t *testing.T, d *Daemon, id string) analysis.TraceReport {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	var rep analysis.TraceReport
	if code := getJSON(t, srv.URL+"/studies/"+id+"/analysis/"+AnalysisTraces, &rep); code != 200 {
		t.Fatalf("traces analysis: HTTP %d", code)
	}
	return rep
}

// TestTraceRotationKeepsWholeLines bursts a traced daemon's events into a
// trace stream capped at a few hundred bytes: every sealed segment must
// end in a newline, the whole rotated stream must read back with no error
// and no gap in the bus sequence, and the trace analysis must count every
// trial.
func TestTraceRotationKeepsWholeLines(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 4, Trace: true, TraceMaxBytes: 300, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	spec := baseSpec("sphere")
	spec.Budget = 200
	spec.Parallelism = 8
	m, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := d.tracer.Dropped(); n != 0 {
		t.Fatalf("tracer dropped %d events", n)
	}

	segs, err := journal.SegmentFiles(d.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("a 300-byte cap sealed %d segments", len(segs))
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[len(data)-1] != '\n' {
			t.Fatalf("sealed segment %s does not end in a newline", seg)
		}
	}
	events, err := analysis.ReadTrace(d.tracePath)
	if err != nil {
		t.Fatalf("reading the rotated trace: %v", err)
	}
	// Concurrent publishers may deliver out of seq order, but every seq
	// from 1 on must be there exactly once.
	seqs := make([]uint64, len(events))
	for i, ev := range events {
		seqs[i] = ev.Seq
	}
	slices.Sort(seqs)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seq %d missing or repeated among %d events: the rotated trace lost events", i+1, len(events))
		}
	}
	if rep := traceReport(t, d, m.ID); rep.Trials.Count != spec.Budget {
		t.Fatalf("trace report counted %d trials, want %d", rep.Trials.Count, spec.Budget)
	}
}

// TestTraceAppendsAcrossRestart stops a traced daemon mid-study, tears
// its trace's last line, and resumes the study on a new daemon over the
// same directory: the trace must keep the first run's spans, so the report
// counts every trial of the budget, not only those run after the restart.
func TestTraceAppendsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := baseSpec("sphere")
	spec.Budget = 12
	spec.Parallelism = 2
	spec.SleepMs = 20

	d1, err := New(Config{Dir: dir, Workers: 2, Trace: true, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	m1, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for m1.Summary().Finished < 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := d1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := m1.Summary().Finished; n >= spec.Budget {
		t.Fatalf("the first daemon finished all %d trials; nothing was left to resume", n)
	}
	// A harder crash also tears the trace's last line: the restart must cut
	// it off rather than append after it.
	if err := appendBytes(d1.tracePath, []byte(`{"seq":999,"kind":"sp`)); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{Dir: dir, Workers: 2, Trace: true, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d2.Start()
	m2, ok := d2.Store().Get(m1.ID)
	if !ok {
		t.Fatal("restarted daemon lost the study")
	}
	waitStatus(t, m2, StatusDone)
	if err := d2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := traceReport(t, d2, m2.ID); rep.Trials.Count != spec.Budget {
		t.Fatalf("trace report counted %d trials across the restart, want %d", rep.Trials.Count, spec.Budget)
	}
}
