package analysis

import (
	"sort"

	"rldecide/internal/obs"
	obspan "rldecide/internal/obs/span"
)

// TraceOptions tunes AnalyzeTrace. Zero values take defaults.
type TraceOptions struct {
	// Study filters the stream to one study's events ("" keeps all).
	Study string `json:"study,omitempty"`
	// StragglerK flags trials slower than K times the p50 trial duration
	// (default 3; straggler detection needs at least 4 finished trials).
	StragglerK float64 `json:"straggler_k,omitempty"`
}

// WorkerSummary aggregates the trial spans attributed to one worker.
type WorkerSummary struct {
	Worker string      `json:"worker"`
	Trials SpanSummary `json:"trials"`
}

// Straggler is a trial whose duration exceeded StragglerK times the p50.
type Straggler struct {
	Study      string  `json:"study,omitempty"`
	Trial      int     `json:"trial"`
	Worker     string  `json:"worker,omitempty"`
	DurationMs float64 `json:"duration_ms"`
	// Ratio is DurationMs over the population p50.
	Ratio float64 `json:"ratio"`
	// Dominant names the critical-path component ("queue", "dispatch",
	// "objective", "journal") that took the largest share of the trial,
	// so a straggler is attributed, not just flagged.
	Dominant string `json:"dominant,omitempty"`
}

// PathBreakdown is one trial's critical path decomposed from its causal
// spans: where the wall-clock went between the scheduler proposing the
// trial and its journal append landing.
type PathBreakdown struct {
	Study  string `json:"study,omitempty"`
	Trial  int    `json:"trial"`
	Worker string `json:"worker,omitempty"`
	// TotalMs is the trial span plus the journal append.
	TotalMs float64 `json:"total_ms"`
	// QueueMs is time inside the trial span not covered by dispatch (or,
	// locally, objective) work — executor lease wait, mostly.
	QueueMs float64 `json:"queue_ms"`
	// DispatchMs is dispatch RTT beyond the objective itself: transport,
	// worker queueing, spec decode, plus any failed attempts.
	DispatchMs float64 `json:"dispatch_ms"`
	// ObjectiveMs is objective execution proper (local or worker-side).
	ObjectiveMs float64 `json:"objective_ms"`
	// JournalMs is the finished trial's journal append.
	JournalMs float64 `json:"journal_ms"`
	// Dominant names the largest component above.
	Dominant string `json:"dominant"`
}

// TraceReport is the trace analyzer's output: span latency summaries per
// population and per worker, plus the straggler list, all in canonical
// (sorted) order so identical streams render byte-identical reports.
type TraceReport struct {
	Study      string          `json:"study,omitempty"`
	Events     int             `json:"events"`
	Studies    []string        `json:"studies,omitempty"`
	Trials     SpanSummary     `json:"trials"`
	Dispatches SpanSummary     `json:"dispatches"`
	Workers    []WorkerSummary `json:"workers,omitempty"`
	StragglerK float64         `json:"straggler_k"`
	Stragglers []Straggler     `json:"stragglers,omitempty"`
	// CriticalPath decomposes each trial's latency from its causal spans,
	// sorted by (study, trial).
	CriticalPath []PathBreakdown `json:"critical_path,omitempty"`
}

// trialKey identifies one trial across studies.
type trialKey struct {
	study string
	trial int
}

// trialRun is one execution of a trial: its trial span plus the component
// spans under it. Durations are summed per component so a retried
// dispatch counts every attempt.
type trialRun struct {
	worker      string
	trialMs     float64
	dispatchMs  float64
	objectiveMs float64
	journalMs   float64
}

// AnalyzeTrace summarizes the causal span events (kind "span") of a trace
// stream: trial durations from "trial" spans, one dispatch duration per
// "dispatch" span (every attempt), per-worker latency distributions,
// each trial's critical path, and stragglers. A span is emitted only once
// it has finished, so a trial still running — or cut off by a torn tail —
// is simply not counted. A trial executed more than once (dropped, then
// re-run on resume) is reported by its latest run.
func AnalyzeTrace(events []obs.Event, opts TraceOptions) TraceReport {
	if opts.StragglerK <= 0 {
		opts.StragglerK = 3
	}
	rep := TraceReport{Study: opts.Study, StragglerK: opts.StragglerK}

	studies := map[string]bool{}
	// A trial's component spans finish before its trial span, which then
	// claims them; its journal span follows and lands on the claimed run.
	pending := map[trialKey]trialRun{}
	runs := map[trialKey]*trialRun{}
	var dispatchDur []float64
	for _, ev := range events {
		if opts.Study != "" && ev.Study != opts.Study {
			continue
		}
		rep.Events++
		if ev.Study != "" {
			studies[ev.Study] = true
		}
		if ev.Kind != obs.KindSpan {
			continue
		}
		k := trialKey{ev.Study, ev.Trial}
		p := pending[k]
		switch ev.Name {
		case obspan.NameDispatch:
			dispatchDur = append(dispatchDur, ev.DurMs)
			p.dispatchMs += ev.DurMs
			if p.worker == "" {
				p.worker = ev.Worker
			}
			pending[k] = p
		case obspan.NameObjective:
			p.objectiveMs += ev.DurMs
			pending[k] = p
		case obspan.NameTrial:
			p.trialMs = ev.DurMs
			if ev.Worker != "" {
				p.worker = ev.Worker
			}
			runs[k] = &p
			delete(pending, k)
		case obspan.NameJournal:
			if r := runs[k]; r != nil {
				r.journalMs += ev.DurMs
			}
		}
	}

	for s := range studies {
		rep.Studies = append(rep.Studies, s)
	}
	sort.Strings(rep.Studies)

	var trialDur []float64
	byWorker := map[string][]float64{}
	for k, r := range runs {
		trialDur = append(trialDur, r.trialMs)
		byWorker[r.worker] = append(byWorker[r.worker], r.trialMs)
		rep.CriticalPath = append(rep.CriticalPath, breakdown(k, r))
	}
	rep.Trials = summarize(trialDur)
	rep.Dispatches = summarize(dispatchDur)

	workers := make([]string, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		rep.Workers = append(rep.Workers, WorkerSummary{Worker: w, Trials: summarize(byWorker[w])})
	}

	sort.Slice(rep.CriticalPath, func(i, j int) bool {
		a, b := rep.CriticalPath[i], rep.CriticalPath[j]
		if a.Study != b.Study {
			return a.Study < b.Study
		}
		return a.Trial < b.Trial
	})

	// Straggler flagging needs a meaningful p50: require a few trials.
	if len(runs) >= 4 && rep.Trials.P50Ms > 0 {
		cut := opts.StragglerK * rep.Trials.P50Ms
		for _, pb := range rep.CriticalPath {
			d := runs[trialKey{pb.Study, pb.Trial}].trialMs
			if d > cut {
				rep.Stragglers = append(rep.Stragglers, Straggler{
					Study:      pb.Study,
					Trial:      pb.Trial,
					Worker:     pb.Worker,
					DurationMs: d,
					Ratio:      d / rep.Trials.P50Ms,
					Dominant:   pb.Dominant,
				})
			}
		}
		// CriticalPath order already breaks ratio ties by (study, trial).
		sort.SliceStable(rep.Stragglers, func(i, j int) bool {
			return rep.Stragglers[i].Ratio > rep.Stragglers[j].Ratio
		})
	}
	return rep
}

// breakdown decomposes one trial run. The trial span covers queue wait
// plus dispatch (or local objective) work; the journal append happens
// after the trial wrapper returns, so it adds on top.
func breakdown(k trialKey, r *trialRun) PathBreakdown {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	pb := PathBreakdown{
		Study:       k.study,
		Trial:       k.trial,
		Worker:      r.worker,
		TotalMs:     r.trialMs + r.journalMs,
		ObjectiveMs: r.objectiveMs,
		JournalMs:   r.journalMs,
	}
	if r.dispatchMs > 0 {
		pb.DispatchMs = clamp(r.dispatchMs - r.objectiveMs)
		pb.QueueMs = clamp(r.trialMs - r.dispatchMs)
	} else {
		pb.QueueMs = clamp(r.trialMs - r.objectiveMs)
	}
	// Fixed evaluation order + strict-greater keeps ties deterministic.
	pb.Dominant = "queue"
	best := pb.QueueMs
	for _, c := range []struct {
		name string
		ms   float64
	}{{"dispatch", pb.DispatchMs}, {"objective", pb.ObjectiveMs}, {"journal", pb.JournalMs}} {
		if c.ms > best {
			pb.Dominant, best = c.name, c.ms
		}
	}
	return pb
}
