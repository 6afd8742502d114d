package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"rldecide/internal/daemon"
	"rldecide/internal/obs/span"
)

// The router's side of fleet-wide causal tracing. Placement is the one
// hop only the router sees, so it records a "place" span per successful
// submission — with the same deterministically derived trace and
// study-root IDs the owning daemon uses, which is what lets the span
// splice into the daemon's tree with zero coordination — and serves the
// merged tree at GET /studies/{id}/spans.

// recordPlaceSpan stores the placement span for a newly
// created study. startMs is the router clock offset captured before the
// forwarded submission.
func (rt *Router) recordPlaceSpan(study, backend string, startMs float64) {
	trace := span.DeriveTrace(study)
	rootID := span.DeriveID(trace, "", span.NameStudy, 0, 0)
	sp := span.Span{
		Trace:   trace,
		ID:      span.DeriveID(trace, rootID, span.NamePlace, 0, 0),
		Parent:  rootID,
		Name:    span.NamePlace,
		Study:   study,
		Daemon:  backend,
		StartMs: startMs,
		DurMs:   rt.clock.ElapsedSeconds()*1e3 - startMs,
		Status:  "ok",
	}
	rt.spanMu.Lock()
	if _, ok := rt.placeSpans[study]; !ok {
		for len(rt.spanOrder) >= maxSpanStudies {
			oldest := rt.spanOrder[0]
			rt.spanOrder = rt.spanOrder[1:]
			delete(rt.placeSpans, oldest)
		}
		rt.spanOrder = append(rt.spanOrder, study)
	}
	rt.placeSpans[study] = append(rt.placeSpans[study], sp)
	rt.spanMu.Unlock()
}

// placeSpansOf returns a copy of the router's recorded spans for a study.
func (rt *Router) placeSpansOf(study string) []span.Span {
	rt.spanMu.Lock()
	defer rt.spanMu.Unlock()
	return append([]span.Span(nil), rt.placeSpans[study]...)
}

// handleSpans answers GET /studies/{id}/spans: fetch the owning daemon's
// tree, splice in the router's placement spans for the study, and rebuild.
// Non-200 backend answers (old daemon without the endpoint, errors) pass
// through untouched, like any other proxied study read.
func (rt *Router) handleSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, ok := rt.owner(r.Context(), id)
	if !ok {
		daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("no backend serves study %q", id))
		return
	}
	rt.metricProxied.Inc()
	resp, err := rt.do(r.Context(), http.MethodGet, b, "/studies/"+url.PathEscape(id)+"/spans", nil, r.Header)
	if err != nil {
		daemon.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", b.Name, err))
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		daemon.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", b.Name, err))
		return
	}
	mine := rt.placeSpansOf(id)
	var payload struct {
		Study   string       `json:"study"`
		Trace   string       `json:"trace,omitempty"`
		Count   int          `json:"count"`
		Dropped int          `json:"dropped,omitempty"`
		Spans   []*span.Node `json:"spans"`
	}
	if resp.StatusCode != http.StatusOK || len(mine) == 0 || json.Unmarshal(body, &payload) != nil {
		// Nothing to merge (or nothing mergeable): pass the backend's
		// answer through verbatim.
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		return
	}
	spans := append(span.Flatten(payload.Spans), mine...)
	payload.Count = len(spans)
	payload.Spans = span.Tree(spans)
	if payload.Trace == "" {
		payload.Trace = mine[0].Trace
	}
	daemon.WriteJSON(w, http.StatusOK, payload)
}
