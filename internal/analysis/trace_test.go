package analysis

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rldecide/internal/journal"
	"rldecide/internal/obs"
	obspan "rldecide/internal/obs/span"
)

// trialSpans emits one trial's spans as a span-recording daemon publishes
// them: the dispatch span finishes before the trial span that encloses it.
func trialSpans(study string, trial int, worker string, dur float64) []obs.Event {
	return []obs.Event{
		causal(study, trial, obspan.NameDispatch, worker, dur/2),
		causal(study, trial, obspan.NameTrial, worker, dur),
	}
}

func TestAnalyzeTrace(t *testing.T) {
	var events []obs.Event
	// Four normal trials and one straggler (10x the p50) on worker b.
	events = append(events, trialSpans("s1", 1, "a", 10)...)
	events = append(events, trialSpans("s1", 2, "a", 10)...)
	events = append(events, trialSpans("s1", 3, "b", 12)...)
	events = append(events, trialSpans("s1", 4, "b", 100)...)
	events = append(events, trialSpans("s2", 1, "a", 10)...) // other study
	// A retried trial: the attempt on a fails, the one on b succeeds —
	// one trial, two dispatches.
	retried := causal("s1", 5, obspan.NameDispatch, "a", 3)
	retried.Status, retried.Err = "error", "connection reset"
	events = append(events, retried,
		causal("s1", 5, obspan.NameDispatch, "b", 4),
		causal("s1", 5, obspan.NameTrial, "b", 11),
	)
	// A trial dropped by a shutdown and re-run on resume: only the re-run
	// counts, so the dropped run's 500ms neither skews the population nor
	// raises a straggler.
	dropped := causal("s1", 6, obspan.NameTrial, "", 500)
	dropped.Status = "dropped"
	events = append(events,
		causal("s1", 6, obspan.NameDispatch, "a", 490),
		dropped,
		causal("s1", 6, obspan.NameDispatch, "b", 5),
		causal("s1", 6, obspan.NameTrial, "b", 10),
		causal("s1", 6, obspan.NameJournal, "", 1),
	)
	events = append(events,
		// Still running: its dispatch finished, its trial span has not.
		causal("s1", 7, obspan.NameDispatch, "a", 2),
		// Announcements time nothing.
		obs.Event{TMs: 0, Kind: obs.KindTrialStart, Study: "s1", Trial: 8},
		obs.Event{TMs: 40, Kind: obs.KindTrialDone, Study: "s1", Trial: 8, Worker: "a", Status: "ok"},
	)

	rep := AnalyzeTrace(events, TraceOptions{Study: "s1"})
	if rep.Trials.Count != 6 {
		t.Fatalf("trials = %d, want 6", rep.Trials.Count)
	}
	if rep.Dispatches.Count != 9 {
		t.Fatalf("dispatches = %d, want 9 (every attempt)", rep.Dispatches.Count)
	}
	if len(rep.Workers) != 2 || rep.Workers[0].Worker != "a" || rep.Workers[1].Worker != "b" {
		t.Fatalf("workers = %+v, want sorted a, b", rep.Workers)
	}
	if rep.Workers[0].Trials.Count != 2 || rep.Workers[1].Trials.Count != 4 {
		t.Fatalf("per-worker trials = %+v, want a:2 b:4", rep.Workers)
	}
	if len(rep.Stragglers) != 1 {
		t.Fatalf("stragglers = %+v, want exactly trial 4", rep.Stragglers)
	}
	s := rep.Stragglers[0]
	if s.Trial != 4 || s.Worker != "b" || s.Ratio < 9 || s.Dominant == "" {
		t.Fatalf("straggler = %+v", s)
	}
	if len(rep.CriticalPath) != 6 {
		t.Fatalf("critical path rows = %d, want 6", len(rep.CriticalPath))
	}
	if p := rep.CriticalPath[4]; p.Trial != 5 || p.Worker != "b" || p.DispatchMs != 7 || p.QueueMs != 4 {
		t.Fatalf("retried trial row = %+v, want both attempts in dispatch", p)
	}
	if p := rep.CriticalPath[5]; p.Trial != 6 || p.Worker != "b" || p.TotalMs != 11 || p.DispatchMs != 5 {
		t.Fatalf("re-run trial row = %+v, want the re-run alone", p)
	}
	if len(rep.Studies) != 1 || rep.Studies[0] != "s1" {
		t.Fatalf("studies = %v, want [s1]", rep.Studies)
	}

	// Unfiltered, both studies appear and the p50 shifts; the report stays
	// deterministic across repeated runs.
	all1, _ := json.Marshal(AnalyzeTrace(events, TraceOptions{}))
	all2, _ := json.Marshal(AnalyzeTrace(events, TraceOptions{}))
	if string(all1) != string(all2) {
		t.Fatalf("AnalyzeTrace is not deterministic:\n%s\n%s", all1, all2)
	}
}

// writeLines writes JSONL events (plus an optional raw tail) to path.
func writeLines(t *testing.T, path string, events []obs.Event, tail string) {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		j, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	b.WriteString(tail)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadTraceRotatedAndTorn is the torn-tail satellite: a rotated
// trace (sealed segments plus an active file whose final line was cut by
// a crash) yields every valid event and an error wrapping
// journal.ErrTruncated — the same contract trial journals honor.
func TestReadTraceRotatedAndTorn(t *testing.T) {
	dir := t.TempDir()
	active := filepath.Join(dir, "trace.jsonl")

	var sealed1, sealed2, live []obs.Event
	for i := 0; i < 3; i++ {
		sealed1 = append(sealed1, obs.Event{Seq: uint64(i), Kind: obs.KindTrialStart, Study: "s1", Trial: i})
		sealed2 = append(sealed2, obs.Event{Seq: uint64(10 + i), Kind: obs.KindTrialDone, Study: "s1", Trial: i})
		live = append(live, obs.Event{Seq: uint64(20 + i), Kind: obs.KindSpan, Name: obspan.NameTrial, Study: "s1", Trial: i})
	}
	// Segment files as journal.SegWriter seals them: <base>-<n>.jsonl.
	writeLines(t, filepath.Join(dir, "trace-1.jsonl"), sealed1, "")
	writeLines(t, filepath.Join(dir, "trace-2.jsonl"), sealed2, "")
	writeLines(t, active, live, `{"seq":99,"kind":"trial_`) // torn mid-flush

	events, err := ReadTrace(active)
	if !errors.Is(err, journal.ErrTruncated) {
		t.Fatalf("torn tail: err = %v, want ErrTruncated", err)
	}
	if len(events) != 9 {
		t.Fatalf("got %d events, want 9 (3 per segment)", len(events))
	}
	// Segment order: sealed by index, then the active file.
	if events[0].Seq != 0 || events[3].Seq != 10 || events[6].Seq != 20 {
		t.Fatalf("segment order broken: seqs %d %d %d", events[0].Seq, events[3].Seq, events[6].Seq)
	}

	// A torn line in a SEALED segment is corruption, not a tail.
	writeLines(t, filepath.Join(dir, "trace-1.jsonl"), sealed1, "{torn")
	if _, err := ReadTrace(active); err == nil || errors.Is(err, journal.ErrTruncated) {
		t.Fatalf("sealed-segment corruption: err = %v, want a hard error", err)
	}
	writeLines(t, filepath.Join(dir, "trace-1.jsonl"), sealed1, "")

	// Mid-file corruption in the active file is also a hard error.
	var b strings.Builder
	j, _ := json.Marshal(live[0])
	b.Write(j)
	b.WriteString("\n{corrupt}\n")
	j, _ = json.Marshal(live[1])
	b.Write(j)
	b.WriteByte('\n')
	if err := os.WriteFile(active, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(active); err == nil || errors.Is(err, journal.ErrTruncated) {
		t.Fatalf("mid-file corruption: err = %v, want a hard error", err)
	}

	// A missing trace is empty, not broken.
	events, err = ReadTrace(filepath.Join(dir, "never-traced.jsonl"))
	if err != nil || len(events) != 0 {
		t.Fatalf("missing trace: events=%d err=%v, want 0, nil", len(events), err)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	durs := make([]float64, 100)
	for i := range durs {
		durs[i] = float64(i + 1) // 1..100
	}
	s := summarize(durs)
	if s.Count != 100 || s.P50Ms != 50 || s.P99Ms != 99 || s.MaxMs != 100 {
		t.Fatalf("summary = %+v", s)
	}
	empty := summarize(nil)
	if empty.Count != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	// Nearest rank is the ceil(q·n)-th value: p90 of 7 samples is the 7th,
	// of 9 samples the 9th.
	for _, n := range []int{7, 9} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		if s := summarize(vals); s.P90Ms != float64(n) || s.P50Ms != float64((n+1)/2) {
			t.Fatalf("n=%d summary = %+v, want p50 %d and p90 %d", n, s, (n+1)/2, n)
		}
	}
	one := summarize([]float64{7})
	if one.P50Ms != 7 || one.P99Ms != 7 || one.MeanMs != 7 {
		t.Fatalf("single summary = %+v", one)
	}
}
