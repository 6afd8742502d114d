package analysis

import (
	"encoding/json"
	"testing"

	"rldecide/internal/obs"
	obspan "rldecide/internal/obs/span"
)

// causal emits one KindSpan event as a span-recording daemon would.
func causal(study string, trial int, name, worker string, durMs float64) obs.Event {
	return obs.Event{
		Kind:   obs.KindSpan,
		Study:  study,
		Trial:  trial,
		Name:   name,
		Worker: worker,
		DurMs:  durMs,
		Status: "ok",
	}
}

func TestAnalyzeTraceCriticalPath(t *testing.T) {
	// Spans arrive in publish order: a trial's components finish before
	// its trial span, its journal append after.
	var events []obs.Event
	// Trial 1: fleet-dispatched, objective-dominant.
	//   trial 100ms ⊃ dispatch 80ms ⊃ objective 60ms; journal 5ms after.
	events = append(events,
		causal("s1", 1, obspan.NameDispatch, "w1", 80),
		causal("s1", 1, obspan.NameObjective, "w1", 60),
		causal("s1", 1, obspan.NameTrial, "w1", 100),
		causal("s1", 1, obspan.NameJournal, "", 5),
	)
	// Trial 2: queue-dominant — long lease wait before a short dispatch.
	events = append(events,
		causal("s1", 2, obspan.NameDispatch, "w2", 20),
		causal("s1", 2, obspan.NameObjective, "w2", 10),
		causal("s1", 2, obspan.NameTrial, "w2", 100),
		causal("s1", 2, obspan.NameJournal, "", 1),
	)
	// Trial 3: local execution — no dispatch span at all.
	events = append(events,
		causal("s1", 3, obspan.NameObjective, "", 45),
		causal("s1", 3, obspan.NameTrial, "local", 50),
		causal("s1", 3, obspan.NameJournal, "", 2),
	)
	// Study/place/run spans must not create breakdown rows; nor must a
	// trial with no trial span (still running).
	events = append(events,
		causal("s1", 0, obspan.NameStudy, "", 500),
		causal("s1", 0, obspan.NamePlace, "", 3),
		causal("s1", 1, obspan.NameRun, "w1", 70),
		causal("s1", 9, obspan.NameObjective, "", 30),
	)

	rep := AnalyzeTrace(events, TraceOptions{Study: "s1"})
	if len(rep.CriticalPath) != 3 {
		t.Fatalf("critical path rows = %+v, want 3", rep.CriticalPath)
	}
	p1, p2, p3 := rep.CriticalPath[0], rep.CriticalPath[1], rep.CriticalPath[2]

	if p1.Trial != 1 || p1.Worker != "w1" || p1.TotalMs != 105 {
		t.Fatalf("trial 1 row: %+v", p1)
	}
	if p1.QueueMs != 20 || p1.DispatchMs != 20 || p1.ObjectiveMs != 60 || p1.JournalMs != 5 {
		t.Fatalf("trial 1 decomposition: %+v", p1)
	}
	if p1.Dominant != "objective" {
		t.Fatalf("trial 1 dominant = %q, want objective", p1.Dominant)
	}

	if p2.Trial != 2 || p2.QueueMs != 80 || p2.DispatchMs != 10 || p2.Dominant != "queue" {
		t.Fatalf("trial 2 row: %+v", p2)
	}

	if p3.Trial != 3 || p3.DispatchMs != 0 || p3.QueueMs != 5 || p3.ObjectiveMs != 45 {
		t.Fatalf("trial 3 (local) row: %+v", p3)
	}
	if p3.Dominant != "objective" || p3.TotalMs != 52 {
		t.Fatalf("trial 3 dominant/total: %+v", p3)
	}

	// Determinism: identical streams render byte-identical reports.
	a, _ := json.Marshal(AnalyzeTrace(events, TraceOptions{Study: "s1"}))
	b, _ := json.Marshal(AnalyzeTrace(events, TraceOptions{Study: "s1"}))
	if string(a) != string(b) {
		t.Fatalf("critical path not deterministic:\n%s\n%s", a, b)
	}
}

// TestStragglerDominantAttribution joins the span-derived breakdown onto
// the straggler list: a flagged trial names its dominant component.
func TestStragglerDominantAttribution(t *testing.T) {
	var events []obs.Event
	events = append(events, trialSpans("s1", 1, "a", 10)...)
	events = append(events, trialSpans("s1", 2, "a", 10)...)
	events = append(events, trialSpans("s1", 3, "b", 12)...)
	// Trial 4 is the 10x straggler, and nearly all of it was queue wait.
	events = append(events,
		causal("s1", 4, obspan.NameDispatch, "b", 15),
		causal("s1", 4, obspan.NameObjective, "b", 12),
		causal("s1", 4, obspan.NameTrial, "b", 100),
		causal("s1", 4, obspan.NameJournal, "", 1),
	)

	rep := AnalyzeTrace(events, TraceOptions{})
	if len(rep.Stragglers) != 1 {
		t.Fatalf("stragglers = %+v", rep.Stragglers)
	}
	if got := rep.Stragglers[0].Dominant; got != "queue" {
		t.Fatalf("straggler dominant = %q, want queue", got)
	}

	// A stream of announcements alone (a trace recorded without spans)
	// times nothing.
	var announced []obs.Event
	for i := 1; i <= 4; i++ {
		announced = append(announced,
			obs.Event{Kind: obs.KindTrialStart, Study: "s1", Trial: i},
			obs.Event{TMs: float64(10 * i), Kind: obs.KindTrialDone, Study: "s1", Trial: i, Status: "ok"})
	}
	if rep := AnalyzeTrace(announced, TraceOptions{}); rep.Trials.Count != 0 || rep.Events != 8 {
		t.Fatalf("spanless stream = %+v, want 8 events and no trials", rep)
	}
}
