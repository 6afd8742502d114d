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

// spanSink builds the study's Sink: its collector plus the bus.
func (d *Daemon) spanSink(m *ManagedStudy) span.Sink {
	return func(sp span.Span) {
		m.spans.Record(sp)
		d.bus.Publish(obs.SpanEvent(sp))
	}
}

// studyScope is the root tracing scope for a study: spans started on it
// (the study root span) sit at the top of the tree.
func (d *Daemon) studyScope(m *ManagedStudy) *span.Scope {
	return &span.Scope{
		Trace:  span.DeriveTrace(m.ID),
		Study:  m.ID,
		Daemon: d.cfg.Name,
		Clock:  d.spanClock,
		Sink:   d.spanSink(m),
	}
}

// journalTimerFor builds the ManagedStudy.journalTimer hook: each
// journal append runs under a "journal" span parented to its trial span.
// The trial span ID is re-derived from the keys — never read back from a
// live span — so this path stays clean under the determinism-taint rule.
func (d *Daemon) journalTimerFor(m *ManagedStudy) func(trial int, do func()) {
	trace := span.DeriveTrace(m.ID)
	rootID := span.DeriveID(trace, "", span.NameStudy, 0, 0)
	sink := d.spanSink(m)
	return func(trial int, do func()) {
		scope := &span.Scope{
			Trace:  trace,
			Parent: span.DeriveID(trace, rootID, span.NameTrial, trial, 0),
			Study:  m.ID,
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
	spans := m.spans.Spans()
	tree := SpanTree{Study: m.ID, Count: len(spans), Spans: span.Tree(spans)}
	if tree.Spans == nil {
		tree.Spans = []*span.Node{}
	}
	if len(spans) > 0 {
		tree.Trace = spans[0].Trace
	} else if d.cfg.Trace {
		tree.Trace = span.DeriveTrace(m.ID)
	}
	tree.Dropped = m.spans.Dropped()
	daemon.WriteJSON(w, http.StatusOK, tree)
}
