// Package analysis is the decision-analysis subsystem: it turns the
// artifacts a finished (or running) study already produces — trace
// streams, trial journals, recorded trajectories — into decisions for
// the practitioner. Three analyzers, all deterministic and all off the
// result path (they only ever read):
//
//   - Trace analysis (AnalyzeTrace): per-trial and per-worker span
//     latency summaries (p50/p90/p99) and critical paths from the causal
//     spans on the trace stream, with straggler flagging (trials slower
//     than k·p50).
//   - Trajectory attribution (AnalyzeAttribution): cluster-and-ablate
//     scoring of which recorded trajectories most influenced the final
//     policy, over fixed-dimension trajectory embeddings.
//   - Counterfactual rollouts (AnalyzeCounterfactuals): branch recorded
//     episodes at saved decision points (the gym.StatefulEnv
//     snapshot/restore seam) under every alternative action and rank
//     decision points by return divergence.
//
// Every analyzer maps identical inputs to byte-identical reports:
// iteration orders are canonical, clustering is initialized without
// randomness, and rollout branches draw common random numbers from
// seeds derived deterministically from the recorded episode. That is
// what lets studyd cache reports in sidecar files and serve them over
// HTTP with the same replay guarantees as journals.
package analysis

import (
	"math"
	"sort"
)

// SpanSummary describes a population of span durations in milliseconds.
type SpanSummary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// summarize computes a SpanSummary over durations (destructively sorts).
func summarize(durations []float64) SpanSummary {
	if len(durations) == 0 {
		return SpanSummary{}
	}
	sort.Float64s(durations)
	sum := 0.0
	for _, d := range durations {
		sum += d
	}
	n := len(durations)
	return SpanSummary{
		Count:  n,
		MeanMs: sum / float64(n),
		P50Ms:  percentile(durations, 0.50),
		P90Ms:  percentile(durations, 0.90),
		P99Ms:  percentile(durations, 0.99),
		MaxMs:  durations[n-1],
	}
}

// percentile returns the nearest-rank percentile of sorted values: the
// ceil(q·n)-th smallest.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q * float64(len(sorted))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
