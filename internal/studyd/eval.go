package studyd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"rldecide/internal/core"
	"rldecide/internal/executor"
	"rldecide/internal/journal"
	"rldecide/internal/obs/span"
	"rldecide/internal/param"
	"rldecide/internal/power"
)

// EvaluateRequest is the executor.EvalFunc every execution mode shares: it
// takes the study objective built from the dispatched spec against the
// process-local objective registry, resolves the trial's parameters
// against the spec's space, and evaluates. Both the daemon's Local
// executor and cmd/rldecide-worker call exactly this function, so a trial
// produces the same values wherever it runs — the property the fleet's
// deterministic failover and the local-vs-distributed replay contract
// rest on.
//
// Everything that depends on the spec alone is built once per
// req.SpecHash and kept (see preparedFor); a request without a hash
// builds it for itself. This prepared-spec cache is the only spec cache
// of a worker process: a hash-only request it cannot answer returns
// executor.ErrSpecNotCached, which the worker answers 428.
//
// A returned error is infrastructural (undecodable spec, hash-only
// request for a spec not held, spec that does not hash to req.SpecHash,
// unknown objective, cancellation) and is never journaled; a
// deterministic objective failure comes back as
// TrialResult.Error instead, which the daemon journals exactly like a
// local failure.
func EvaluateRequest(ctx context.Context, req executor.TrialRequest) (executor.TrialResult, error) {
	res := executor.TrialResult{StudyID: req.StudyID, TrialID: req.TrialID}
	p, err := preparedFor(req)
	if err != nil {
		return res, err
	}
	// The parameters arrive in their 4-significant-digit journal rendering
	// and go through the journal's resolver, so a local trial, a fleet
	// trial and a recovered one all see the same values.
	trial, err := p.resolver.Trial(journal.Record{ID: req.TrialID, Params: req.Params, Seed: req.Seed})
	if err != nil {
		return res, err
	}
	rec, out := core.NewRecorder(ctx, p.metrics)
	// Time the objective itself (not spec decoding) through the sanctioned
	// wall-clock seam. The measurement is informational — it becomes the
	// journal's wall_ms field and the trial-latency histogram, never an
	// input to the result. When the caller's context carries a tracing
	// scope (Config.Trace on the daemon, or a traced dispatch on a
	// worker), the same window is recorded as an "objective" span.
	osp := span.FromContext(ctx).Start(span.NameObjective, 0)
	sw := power.StartStopwatch()
	err = runObjective(p.objective, trial.Params, req.Seed, rec)
	res.WallMs = sw.ElapsedSeconds() * 1e3
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Interrupted, not failed: the dispatcher drops the trial and
			// the campaign re-proposes it on resume.
			osp.Finish("cancelled", err.Error())
			return res, err
		}
		osp.Finish("failed", err.Error())
		res.Error = err.Error()
	} else {
		osp.Finish("ok", "")
	}
	res.Values = out.Values.Map()
	return res, nil
}

// evalSpec is a dispatched spec as EvaluateRequest keeps it: prepared, and
// with the resolver its trials' parameters go through. All of it is
// read-only once built: concurrent trials share it.
type evalSpec struct {
	*prepared
	resolver *journal.Resolver
}

// prepareWire decodes a dispatched spec and prepares it for evaluation.
func prepareWire(raw []byte) (*evalSpec, error) {
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("studyd: decoding dispatched spec: %w", err)
	}
	p, err := spec.prepare()
	if err != nil {
		return nil, err
	}
	return &evalSpec{prepared: p, resolver: journal.NewResolver(p.space)}, nil
}

// preparedFor returns the prepared form of req's spec: the cached one when
// req.SpecHash names one, otherwise a fresh one, filed under the hash if
// the request carries one. A hash-only request that names none is
// executor.ErrSpecNotCached. A hash is checked against the bytes before
// anything is filed under it (executor.ErrSpecHashMismatch), so a sender
// cannot make later trials of another spec run this one.
func preparedFor(req executor.TrialRequest) (*evalSpec, error) {
	if req.SpecHash == "" {
		return prepareWire(req.Spec)
	}
	objMu.RLock()
	p, ok := preparedSpecs[req.SpecHash]
	gen := objGen
	objMu.RUnlock()
	if ok {
		return p, nil
	}
	if len(req.Spec) == 0 {
		return nil, fmt.Errorf("studyd: spec %s: %w", req.SpecHash, executor.ErrSpecNotCached)
	}
	if got := executor.SpecHashOf(req.Spec); got != req.SpecHash {
		return nil, fmt.Errorf("studyd: dispatched spec hashes to %s, not to %s: %w", got, req.SpecHash, executor.ErrSpecHashMismatch)
	}
	p, err := prepareWire(req.Spec)
	if err != nil {
		return nil, err
	}
	objMu.Lock()
	defer objMu.Unlock()
	if _, raced := preparedSpecs[req.SpecHash]; gen != objGen || raced {
		return p, nil
	}
	if len(preparedOrder) >= maxPreparedSpecs {
		delete(preparedSpecs, preparedOrder[0])
		preparedOrder = preparedOrder[1:]
	}
	preparedSpecs[req.SpecHash] = p
	preparedOrder = append(preparedOrder, req.SpecHash)
	return p, nil
}

// runObjective evaluates with the same panic barrier core.Study uses, so a
// panicking objective yields the identical journaled failure in local and
// fleet mode instead of crashing a worker.
func runObjective(obj core.Objective, a param.Assignment, seed uint64, rec *core.Recorder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("studyd: objective panicked: %v", r)
		}
	}()
	return obj(a, seed, rec)
}
