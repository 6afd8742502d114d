// Package executor runs study trials on behalf of the studyd daemon. It
// is the seam the paper's distributed deployments plug into: the daemon
// derives trial parameters and seeds from the explorer exactly as before,
// then hands each trial to an Executor instead of calling the objective
// inline. Two implementations ship:
//
//   - Local evaluates trials in-process on a bounded slot pool (the
//     default — today's behavior, restated as an executor lease).
//   - Fleet dispatches trials over HTTP to registered worker daemons
//     (cmd/rldecide-worker), tracks the workers via heartbeats, applies a
//     per-attempt timeout, and retries a failed dispatch on another
//     worker with exponential backoff — so killing a worker mid-trial
//     requeues the trial instead of losing it.
//
// The determinism contract: a TrialRequest fully determines its
// TrialResult. Workers are pure functions of (spec, params, seed), so a
// trial retried on a different worker — or replayed after a crash —
// produces the same values, and a campaign's journal is byte-identical
// (modulo worker attribution) whether it ran locally or across N workers.
package executor

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"

	"rldecide/internal/obs/span"
)

// TrialRequest is one trial dispatch: everything a worker needs to
// evaluate the trial, its spec included or named by hash.
type TrialRequest struct {
	StudyID string `json:"study_id"`
	TrialID int    `json:"trial_id"`
	// Spec is the submitting study's spec as persisted by the daemon, in
	// the compact form encoding/json gives a RawMessage on the wire; the
	// worker builds the objective from it against its own objective
	// registry. Spec may be absent when SpecHash is set: the dispatcher
	// omits it on repeat sends to a worker that has already evaluated the
	// hash, and a worker whose evaluator no longer holds that spec answers
	// 428 (ErrSpecNotCached) so the dispatcher resends in full.
	Spec json.RawMessage `json:"spec,omitempty"`
	// SpecHash is the content hash of Spec as the receiver sees it (see
	// SpecHashOf), keying the evaluator's prepared-spec cache, which checks
	// it against the bytes before filing anything under it
	// (ErrSpecHashMismatch). Empty disables caching for this dispatch.
	SpecHash string `json:"spec_hash,omitempty"`
	// Params is the explorer's assignment in its canonical journal
	// rendering (parameter name -> value string).
	Params map[string]string `json:"params"`
	// Seed is the trial's derived seed; together with Params it makes the
	// evaluation reproducible on any node.
	Seed uint64 `json:"seed"`
}

// TrialResult is the worker's answer.
type TrialResult struct {
	StudyID string             `json:"study_id"`
	TrialID int                `json:"trial_id"`
	Values  map[string]float64 `json:"values,omitempty"`
	// Error reports a deterministic objective failure — the trial ran and
	// failed the same way it would anywhere, so the daemon journals it
	// like a local failure. Transport/infrastructure failures surface as
	// Go errors from Executor.Run instead and are retried, never journaled.
	Error string `json:"error,omitempty"`
	// Worker names the node that evaluated the trial (attribution only).
	Worker string `json:"worker,omitempty"`
	// WallMs is the trial's measured wall-clock compute time in
	// milliseconds on the evaluating node (via power.Stopwatch).
	// Informational only: it rides back to the journal's wall_ms field
	// and never feeds replay or ranking.
	WallMs float64 `json:"wall_ms,omitempty"`
	// Spans are the causal spans the worker recorded while evaluating
	// (internal/obs/span), returned so the dispatching daemon holds the
	// complete per-trial span tree. Present only when the dispatch carried
	// trace headers; informational only — never journaled, never ranked.
	Spans []span.Span `json:"spans,omitempty"`
}

// SpecHashOf returns the content hash (hex SHA-256) of raw spec bytes,
// suitable for TrialRequest.SpecHash. Campaigns compute it once per study:
// every trial of a study ships the same spec, which is exactly what makes
// the evaluator's prepared-spec cache, and hash-only sends, worthwhile.
func SpecHashOf(spec []byte) string {
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

// The two refusals an EvalFunc reports about the spec of a hashed request
// rather than about its trial. A worker answers them 428 and 400; neither
// is counted as an evaluation.
var (
	// ErrSpecNotCached: the request is hash-only and the evaluator holds no
	// spec under its hash. The dispatcher resends the trial in full.
	ErrSpecNotCached = errors.New("executor: spec not cached; resend with full spec")
	// ErrSpecHashMismatch: the request's spec does not hash to its
	// spec_hash. Nothing is filed under the hash and nothing runs.
	ErrSpecHashMismatch = errors.New("executor: spec does not hash to its spec_hash")
)

// EvalFunc evaluates one trial request. studyd.EvaluateRequest is the
// canonical implementation; Local and the worker daemon share it, which is
// what makes local and fleet campaigns bit-for-bit comparable. A request
// whose SpecHash is set may come without Spec; an EvalFunc that keeps no
// spec under that hash returns an error wrapping ErrSpecNotCached, and one
// handed a spec that does not hash to SpecHash an error wrapping
// ErrSpecHashMismatch.
type EvalFunc func(ctx context.Context, req TrialRequest) (TrialResult, error)

// Stats reports an executor's capacity and occupancy.
type Stats struct {
	// Cap is the maximum number of concurrently executing trials (for a
	// fleet: the summed slots of live workers).
	Cap int `json:"cap"`
	// InUse is the number of trials executing right now.
	InUse int `json:"in_use"`
	// Workers is the number of live workers backing the capacity (1 for
	// the local executor).
	Workers int `json:"workers"`
}

// Executor runs trials. Run blocks until the trial has been evaluated
// (waiting for capacity if none is free), ctx is cancelled, or the
// executor gives up; a nil error means the result is authoritative.
type Executor interface {
	Run(ctx context.Context, req TrialRequest) (TrialResult, error)
	Stats() Stats
}
