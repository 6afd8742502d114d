package studyd

import (
	"errors"
	"fmt"
	"net/http"
	"os"

	"rldecide/internal/analysis"
	"rldecide/internal/daemon"
	"rldecide/internal/journal"
	"rldecide/internal/rl"
)

// Analysis kinds served under /studies/{id}/analysis/{kind}.
const (
	AnalysisTraces          = "traces"
	AnalysisAttribution     = "attribution"
	AnalysisCounterfactuals = "counterfactuals"
)

// serveAnalysis computes one decision-analysis report for a study on
// demand: trace span summaries, trajectory attribution, or
// counterfactual rollouts. Reports are cached in a sidecar file next to
// the study's artifacts, keyed by a fingerprint of the inputs, so a
// finished study pays for each analysis once; a study still appending to
// its journals recomputes on the next request after the inputs grow.
// Everything here reads artifacts the scheduler already wrote — analysis
// can never affect a running study's results.
func (d *Daemon) serveAnalysis(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
	kind := r.PathValue("kind")
	var (
		inputs []string
		run    func() (any, error)
	)
	switch kind {
	case AnalysisTraces:
		segs, err := journal.SegmentFiles(d.tracePath)
		if err != nil {
			daemon.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		inputs = append(segs, d.tracePath)
		run = func() (any, error) {
			events, err := analysis.ReadTrace(d.tracePath)
			if err != nil && !errors.Is(err, journal.ErrTruncated) {
				return nil, err
			}
			return analysis.AnalyzeTrace(events, analysis.TraceOptions{Study: m.ID}), nil
		}
	case AnalysisAttribution:
		inputs = []string{d.trajPath(m.ID)}
		run = func() (any, error) {
			eps, err := d.loadTrajectories(m.ID)
			if err != nil {
				return nil, err
			}
			return analysis.AnalyzeAttribution(eps, analysis.AttributionOptions{})
		}
	case AnalysisCounterfactuals:
		inputs = []string{d.trajPath(m.ID)}
		run = func() (any, error) {
			eps, err := d.loadTrajectories(m.ID)
			if err != nil {
				return nil, err
			}
			return analysis.AnalyzeCounterfactuals(eps, analysis.CounterfactualOptions{})
		}
	default:
		daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown analysis kind %q (want %s, %s or %s)",
			kind, AnalysisTraces, AnalysisAttribution, AnalysisCounterfactuals))
		return
	}

	fp := analysis.Fingerprint(inputs...)
	cachePath := analysis.CachePath(d.cfg.Dir, m.ID, kind)
	if raw, ok := analysis.LoadCached(cachePath, kind, fp); ok {
		daemon.WriteJSON(w, http.StatusOK, raw)
		return
	}
	rep, err := run()
	if err != nil {
		if os.IsNotExist(err) {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("no recorded trajectories for %s — run the daemon with analysis enabled (-analysis) and use a trajectory objective such as steer-ppo", m.ID))
			return
		}
		daemon.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := analysis.SaveCached(cachePath, kind, m.ID, fp, rep); err != nil {
		d.cfg.Logf("studyd: caching %s analysis for %s: %v", kind, m.ID, err)
	}
	daemon.WriteJSON(w, http.StatusOK, rep)
}

// loadTrajectories reads a study's trajectory journal in canonical
// order, tolerating a torn tail exactly like trial journals.
func (d *Daemon) loadTrajectories(id string) ([]rl.Episode, error) {
	eps, err := analysis.ReadEpisodes(d.trajPath(id))
	if err != nil && !errors.Is(err, journal.ErrTruncated) {
		return nil, err
	}
	return eps, nil
}
