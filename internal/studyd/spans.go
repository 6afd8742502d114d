package studyd

import (
	"net/http"

	"rldecide/internal/daemon"
	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
)

// Span plumbing for the daemon (Config.Trace). Every span the daemon —
// or a worker on the daemon's behalf — records for a study lands in two
// places: the study's bounded in-memory collector (served at
// GET /studies/{id}/spans) and the event bus as a KindSpan event (which
// the tracer streams to the rotating trace file, where the traces
// analysis picks it up). All IDs are derived deterministically from the
// study/trial/attempt keys (see internal/obs/span), so the router, the
// daemon, and the workers agree on one tree without coordination.

// spanCollector returns (creating on first use) the study's span buffer.
func (d *Daemon) spanCollector(study string) *span.Collector {
	d.spanMu.Lock()
	defer d.spanMu.Unlock()
	col, ok := d.spanCols[study]
	if !ok {
		col = span.NewCollector(0)
		d.spanCols[study] = col
	}
	return col
}

// spansOf returns the study's collected spans without creating a buffer
// for studies that never recorded any (tracing off, or pre-span journals).
func (d *Daemon) spansOf(study string) []span.Span {
	d.spanMu.Lock()
	col := d.spanCols[study]
	d.spanMu.Unlock()
	return col.Spans()
}

// spanSink builds the study's Sink: collector plus bus.
func (d *Daemon) spanSink(study string) span.Sink {
	col := d.spanCollector(study)
	return func(sp span.Span) {
		col.Record(sp)
		d.bus.Publish(obs.SpanEvent(sp))
	}
}

// studyScope is the root tracing scope for a study: spans started on it
// (the study root span) sit at the top of the tree.
func (d *Daemon) studyScope(study string) *span.Scope {
	return &span.Scope{
		Trace:  span.DeriveTrace(study),
		Study:  study,
		Daemon: d.cfg.Name,
		Clock:  d.spanClock,
		Sink:   d.spanSink(study),
	}
}

// journalTimerFor builds the ManagedStudy.journalTimer hook: each
// journal append runs under a "journal" span parented to its trial span.
// The trial span ID is re-derived from the keys — never read back from a
// live span — so this path stays clean under the determinism-taint rule.
func (d *Daemon) journalTimerFor(study string) func(trial int, do func()) {
	trace := span.DeriveTrace(study)
	rootID := span.DeriveID(trace, "", span.NameStudy, 0, 0)
	sink := d.spanSink(study)
	return func(trial int, do func()) {
		scope := &span.Scope{
			Trace:  trace,
			Parent: span.DeriveID(trace, rootID, span.NameTrial, trial, 0),
			Study:  study,
			Trial:  trial,
			Daemon: d.cfg.Name,
			Clock:  d.spanClock,
			Sink:   sink,
		}
		jsp := scope.Start(span.NameJournal, 0)
		do()
		jsp.Finish("ok", "")
	}
}

// SpanTree is the GET /studies/{id}/spans payload: the study's collected
// spans assembled into parent-linked trees. Count is the flat span count
// (the tree elides nothing); Dropped reports spans the bounded buffer
// discarded.
type SpanTree struct {
	Study   string       `json:"study"`
	Trace   string       `json:"trace,omitempty"`
	Count   int          `json:"count"`
	Dropped int          `json:"dropped,omitempty"`
	Spans   []*span.Node `json:"spans"`
}

// serveSpans answers GET /studies/{id}/spans. A study with no recorded
// spans (tracing off, or finished before -trace was enabled) answers an
// empty tree, not an error — the endpoint shape is stable either way.
func (d *Daemon) serveSpans(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
	spans := d.spansOf(m.ID)
	tree := SpanTree{Study: m.ID, Count: len(spans), Spans: span.Tree(spans)}
	if tree.Spans == nil {
		tree.Spans = []*span.Node{}
	}
	if len(spans) > 0 {
		tree.Trace = spans[0].Trace
	} else if d.cfg.Trace {
		tree.Trace = span.DeriveTrace(m.ID)
	}
	d.spanMu.Lock()
	col := d.spanCols[m.ID]
	d.spanMu.Unlock()
	tree.Dropped = col.Dropped()
	daemon.WriteJSON(w, http.StatusOK, tree)
}
