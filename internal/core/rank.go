package core

import (
	"fmt"
	"sort"

	"rldecide/internal/pareto"
)

// Report is the study outcome handed to the decision maker.
type Report struct {
	CaseStudy CaseStudy
	Metrics   []Metric
	Trials    []Trial
	Explorer  string
	Ranker    string
	Ranking   Ranking
}

// completed returns the trials that produced all metrics (failed and
// pruned trials are excluded from ranking but kept in Trials). When every
// trial completed that is r.Trials itself, capacity-capped, not a copy.
func (r *Report) completed() []Trial {
	for i := range r.Trials {
		if r.complete(&r.Trials[i]) {
			continue
		}
		out := append(make([]Trial, 0, len(r.Trials)-1), r.Trials[:i]...)
		for j := i + 1; j < len(r.Trials); j++ {
			if t := &r.Trials[j]; r.complete(t) {
				out = append(out, *t)
			}
		}
		return out
	}
	return r.Trials[:len(r.Trials):len(r.Trials)]
}

// complete reports whether t is one of the trials completed ranks.
func (r *Report) complete(t *Trial) bool {
	if t.Err != nil || t.Pruned {
		return false
	}
	for _, m := range r.Metrics {
		if !t.Values.Has(m.Name) {
			return false
		}
	}
	return true
}

// Completed exposes the ranked trial subset in ranking index order 0..n-1.
// It may share its storage with Trials, so callers must not modify it.
func (r *Report) Completed() []Trial { return r.completed() }

// Points projects the completed trials onto the named metrics as Pareto
// points (Point.ID is the trial ID).
func (r *Report) Points(metrics ...string) ([]pareto.Point, []pareto.Direction, error) {
	dirs := make([]pareto.Direction, len(metrics))
	for i, name := range metrics {
		found := false
		for _, m := range r.Metrics {
			if m.Name == name {
				dirs[i] = m.Direction
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("core: unknown metric %q", name)
		}
	}
	var pts []pareto.Point
	for _, t := range r.completed() {
		vals := make([]float64, len(metrics))
		for i, name := range metrics {
			vals[i] = t.Values.At(name)
		}
		pts = append(pts, pareto.Point{ID: t.ID, Values: vals})
	}
	return pts, dirs, nil
}

// FrontIDs returns the trial IDs on the (ε-)Pareto front of the named
// metrics.
func (r *Report) FrontIDs(eps float64, metrics ...string) ([]int, error) {
	pts, dirs, err := r.Points(metrics...)
	if err != nil {
		return nil, err
	}
	var idx []int
	if eps > 0 {
		idx = pareto.EpsilonFront(pts, dirs, eps)
	} else {
		idx = pareto.Front(pts, dirs)
	}
	ids := make([]int, len(idx))
	for i, j := range idx {
		ids[i] = pts[j].ID
	}
	sort.Ints(ids)
	return ids, nil
}

// Best returns the completed trial with the best value of the named
// metric, or ok=false when none completed.
func (r *Report) Best(metric string) (Trial, bool) {
	var dir pareto.Direction
	found := false
	for _, m := range r.Metrics {
		if m.Name == metric {
			dir = m.Direction
			found = true
		}
	}
	if !found {
		return Trial{}, false
	}
	trials := r.completed()
	if len(trials) == 0 {
		return Trial{}, false
	}
	best := trials[0]
	for _, t := range trials[1:] {
		v, b := t.Values.At(metric), best.Values.At(metric)
		if (dir == pareto.Maximize && v > b) || (dir == pareto.Minimize && v < b) {
			best = t
		}
	}
	return best, true
}

// ParetoRanker ranks trials by non-dominated sorting over the chosen
// objectives (all study metrics when Objectives is empty) — the ranking
// method of the paper's campaign.
type ParetoRanker struct {
	// Objectives selects the metric subset to rank on.
	Objectives []string
	// Eps widens the first front to ε-non-dominated solutions.
	Eps float64
}

// Name implements Ranker.
func (p ParetoRanker) Name() string { return "pareto" }

// Rank implements Ranker. Every trial index appears in exactly one front,
// and each front lists indices in ascending order.
func (p ParetoRanker) Rank(trials []Trial, metrics []Metric) Ranking {
	objectives := metrics
	if len(p.Objectives) > 0 {
		objectives = make([]Metric, len(p.Objectives))
		for i, n := range p.Objectives {
			objectives[i].Name = n
			for _, m := range metrics {
				if m.Name == n {
					objectives[i] = m
				}
			}
		}
	}
	// One row-major matrix of normalized values, filled straight from the
	// trials.
	n, m := len(trials), len(objectives)
	vals := make([]float64, n*m)
	for i := range trials {
		t := &trials[i]
		for j, o := range objectives {
			vals[i*m+j] = pareto.Normalize(t.Values.At(o.Name), o.Direction)
		}
	}
	fronts := pareto.NonDominatedSortRows(vals, n, m)
	if p.Eps > 0 && len(fronts) > 0 {
		// The ε-front of the same rows: normalized, every objective is
		// minimized, and Normalize leaves a normalized value as it is.
		pts := make([]pareto.Point, n)
		for i := range pts {
			pts[i].Values = vals[i*m : (i+1)*m : (i+1)*m]
		}
		fronts = widenFirstFront(fronts, pareto.EpsilonFront(pts, make([]pareto.Direction, m), p.Eps), n)
	}
	return Ranking{Method: "pareto", Fronts: fronts}
}

// widenFirstFront replaces fronts[0] with the ε-front (a superset of it,
// ascending) and takes the promoted indices out of the later fronts they
// came from, dropping any front left empty, so the result still covers
// each of the n indices once.
func widenFirstFront(fronts [][]int, epsFront []int, n int) [][]int {
	promoted := make([]bool, n)
	for _, i := range epsFront {
		promoted[i] = true
	}
	out := append(fronts[:0], epsFront)
	for _, front := range fronts[1:] {
		kept := front[:0]
		for _, i := range front {
			if !promoted[i] {
				kept = append(kept, i)
			}
		}
		if len(kept) > 0 {
			out = append(out, kept)
		}
	}
	return out
}

// SortedRanker ranks trials best-first by one metric — the paper's
// "sorted array" ranking alternative.
type SortedRanker struct {
	By string // metric name (default: first metric)
}

// Name implements Ranker.
func (s SortedRanker) Name() string { return "sorted" }

// Rank implements Ranker.
func (s SortedRanker) Rank(trials []Trial, metrics []Metric) Ranking {
	by := s.By
	if by == "" && len(metrics) > 0 {
		by = metrics[0].Name
	}
	var dir pareto.Direction
	for _, m := range metrics {
		if m.Name == by {
			dir = m.Direction
		}
	}
	order := make([]int, len(trials))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := trials[order[a]].Values.At(by), trials[order[b]].Values.At(by)
		if dir == pareto.Maximize {
			return va > vb
		}
		return va < vb
	})
	return Ranking{Method: "sorted", Ordered: order}
}
