package studyd

import (
	"fmt"
	"sort"

	"rldecide/internal/analysis"
	"rldecide/internal/core"
	"rldecide/internal/executor"
	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
	"rldecide/internal/param"
	"rldecide/internal/power"
)

// The scheduler bridges core.Study trial execution onto the daemon's
// executor. Where the first studyd release gated objectives on an
// in-process semaphore (the shared worker pool), every trial now becomes
// an executor lease: the Local executor keeps the exact pool semantics
// (bounded slots shared across studies, released the moment a trial
// finishes), while the Fleet executor leases capacity on remote worker
// daemons instead. Trial parameters and seeds are still derived on the
// daemon by the explorer, so which executor runs a trial never changes
// what the trial computes.

// Execution modes for Config.Exec.
const (
	// ExecLocal evaluates trials in-process (default).
	ExecLocal = "local"
	// ExecFleet dispatches trials to registered rldecide-worker daemons.
	ExecFleet = "fleet"
)

// objectiveFor returns the objective m's run evaluates: it routes each
// trial through the daemon's executor as a self-contained TrialRequest.
// The executor's EvalFunc (EvaluateRequest here or on a worker) builds the
// spec's own objective from the dispatched spec, once per spec hash,
// keeping one evaluation path for every mode.
//
// The objective is also the scheduler's observability point: it publishes
// trial start/done events to the daemon's bus, observes trial latency
// (lease wait + evaluation) through the Stopwatch seam, and carries the
// trial's measured compute time into the journal's wall_ms field. All of
// it rides alongside the result — the values reported to the Recorder are
// exactly the executor's, instrumented or not.
func (d *Daemon) objectiveFor(m *ManagedStudy, episodes *analysis.EpisodeWriter) core.Objective {
	// The spec is immutable for the study's lifetime, so hash it once:
	// fleet dispatchers use the hash to ship hash-only requests to workers
	// that already cached the spec, and the evaluator to prepare the spec
	// once instead of once per trial.
	specHash := executor.SpecHashOf(m.wireSpec)
	// Traced: every trial gets a "trial" span under the study root,
	// and the executor call carries a scope parented to it so dispatch
	// attempts (fleet) or the objective span (local) attach underneath.
	// All IDs are re-derived from the keys here rather than read off live
	// spans, keeping the executor inputs clean under the determinism-
	// taint rule.
	var trace, rootID string
	var sink span.Sink
	if d.cfg.Trace {
		trace = span.DeriveTrace(m.ID)
		rootID = span.DeriveID(trace, "", span.NameStudy, 0, 0)
		sink = d.spanSink(m)
	}
	return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
		params := make(map[string]string, len(a))
		for _, b := range a {
			params[b.Name] = b.Value.String()
		}
		req := executor.TrialRequest{
			StudyID:  m.ID,
			TrialID:  rec.TrialID(),
			Spec:     m.wireSpec,
			SpecHash: specHash,
			Params:   params,
			Seed:     seed,
		}
		d.inflight.Add(1)
		defer d.inflight.Add(-1)
		d.bus.Publish(obs.Event{Kind: obs.KindTrialStart, Study: m.ID, Trial: req.TrialID})
		// In analysis mode, locally executed trials carry the study's
		// trajectory writer on their context; trajectory-aware objectives
		// journal evaluation episodes through it. Fleet dispatch sends
		// the request over HTTP, so remote trials naturally record
		// nothing (the daemon cannot reach a worker's disk). Either
		// way the values reported below are untouched — recording is
		// off the result path.
		ctx := rec.Context()
		if episodes != nil {
			ctx = analysis.WithEpisodeSink(ctx, episodes)
		}
		var tsp *span.Active
		if d.cfg.Trace {
			tscope := &span.Scope{Trace: trace, Parent: rootID, Study: m.ID,
				Trial: req.TrialID, Daemon: d.cfg.Name, Clock: d.spanClock, Sink: sink}
			tsp = tscope.Start(span.NameTrial, 0)
			// Children parent onto the trial span; its ID is re-derived
			// (identical to tsp's by construction).
			cscope := &span.Scope{Trace: trace,
				Parent: span.DeriveID(trace, rootID, span.NameTrial, req.TrialID, 0),
				Study:  m.ID, Trial: req.TrialID, Daemon: d.cfg.Name,
				Clock: d.spanClock, Sink: sink}
			ctx = span.NewContext(ctx, cscope)
		}
		sw := power.StartStopwatch()
		res, err := d.exec.Run(ctx, req)
		metricTrialSeconds.Observe(sw.ElapsedSeconds())
		if err != nil {
			// Infrastructure failure or cancellation: the trial is not
			// journaled (retried or re-proposed on resume).
			tsp.Finish("dropped", err.Error())
			d.bus.Publish(obs.Event{Kind: obs.KindTrialDone, Study: m.ID, Trial: req.TrialID, Status: "dropped", Err: err.Error()})
			return err
		}
		metricTrialsFinished.Inc()
		tsp.SetWorker(res.Worker)
		rec.SetWorker(res.Worker)
		rec.SetWallMs(res.WallMs)
		names := make([]string, 0, len(res.Values))
		for name := range res.Values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rec.Report(name, res.Values[name])
		}
		done := obs.Event{Kind: obs.KindTrialDone, Study: m.ID, Trial: req.TrialID, Worker: res.Worker, Status: "ok", WallMs: res.WallMs}
		if res.Error != "" {
			metricTrialErrors.Inc()
			done.Status = "failed"
			done.Err = res.Error
			tsp.Finish("failed", res.Error)
			d.bus.Publish(done)
			return fmt.Errorf("%s", res.Error)
		}
		tsp.Finish("ok", "")
		d.bus.Publish(done)
		return nil
	}
}
