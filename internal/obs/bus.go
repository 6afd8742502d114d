package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"rldecide/internal/obs/span"
	"rldecide/internal/power"
)

// Event kinds emitted by the instrumented stack. Every kind but KindSpan
// is an announcement — something happened — for live consumers (SSE
// clients, the tracer); timing comes from KindSpan events alone.
const (
	KindStudyStart = "study_start"
	KindStudyDone  = "study_done"
	KindTrialStart = "trial_start"
	KindTrialDone  = "trial_done"
	KindWorkerUp   = "worker_up"
	KindWorkerDown = "worker_down"

	// Control-plane kinds (router + sharded daemons): study placement
	// onto a backend, ownership handoff after a backend death, and the
	// router's view of backend liveness.
	KindStudyPlaced  = "study_placed"
	KindStudyAdopted = "study_adopted"
	KindBackendUp    = "backend_up"
	KindBackendDown  = "backend_down"

	// KindSpan carries one finished causal span (internal/obs/span) on the
	// trace stream: Name/Trace/Span/Parent/DurMs describe the span, the
	// shared Study/Trial/Attempt/Worker/Daemon fields its attribution.
	KindSpan = "span"
)

// Event is one observability record. Seq and TMs are stamped by the bus
// at publish time; TMs is wall-clock milliseconds since the bus's
// Stopwatch epoch and is informational only — it never feeds results.
type Event struct {
	Seq     uint64  `json:"seq"`
	TMs     float64 `json:"t_ms"`
	Kind    string  `json:"kind"`
	Study   string  `json:"study,omitempty"`
	Trial   int     `json:"trial,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Worker  string  `json:"worker,omitempty"`
	Daemon  string  `json:"daemon,omitempty"`
	Status  string  `json:"status,omitempty"`
	WallMs  float64 `json:"wall_ms,omitempty"`
	Err     string  `json:"err,omitempty"`

	// Span fields, set only on KindSpan events: the span name and the
	// trace/span/parent IDs (deterministically derived — see
	// internal/obs/span), plus the span's duration.
	Name   string  `json:"name,omitempty"`
	Trace  string  `json:"trace,omitempty"`
	Span   string  `json:"span,omitempty"`
	Parent string  `json:"parent,omitempty"`
	DurMs  float64 `json:"dur_ms,omitempty"`
}

// SpanEvent converts a finished causal span into its KindSpan event.
func SpanEvent(sp span.Span) Event {
	return Event{
		Kind:    KindSpan,
		Study:   sp.Study,
		Trial:   sp.Trial,
		Attempt: sp.Attempt,
		Worker:  sp.Worker,
		Daemon:  sp.Daemon,
		Status:  sp.Status,
		Err:     sp.Err,
		Name:    sp.Name,
		Trace:   sp.Trace,
		Span:    sp.ID,
		Parent:  sp.Parent,
		DurMs:   sp.DurMs,
	}
}

// Subscription is one consumer's buffered view of the bus. Events the
// consumer fails to drain in time are dropped (never blocking the
// producer) and counted.
type Subscription struct {
	name    string
	ch      chan Event
	dropped atomic.Uint64
}

// Name identifies the consumer ("tracer", "sse", ...) for the per-
// subscription drop counters surfaced at /metrics.
func (s *Subscription) Name() string { return s.name }

// Events returns the receive channel. It is closed when the subscription
// is cancelled or the bus shuts down.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were discarded because the buffer was
// full.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Bus is the in-process event bus feeding the tracer and the SSE
// endpoint. Publish is nil-safe and never blocks: a nil *Bus discards
// everything, and slow subscribers lose events rather than stalling the
// scheduler or executor. Subscriptions live in a slice (not a map) so
// fan-out order is deterministic.
type Bus struct {
	clock *power.Stopwatch
	seq   atomic.Uint64
	mu    sync.Mutex
	// guarded-by: mu
	subs []*Subscription
	// guarded-by: mu
	closed bool
	// dropTotals retains drop counts of departed subscriptions, keyed by
	// subscription name, so the Prometheus counter family stays monotonic
	// across SSE client churn.
	// guarded-by: mu
	dropTotals map[string]uint64
}

// NewBus returns a bus stamping events against a fresh Stopwatch epoch.
func NewBus() *Bus { return NewBusAt(power.StartStopwatch()) }

// NewBusAt returns a bus stamping events against the given Stopwatch
// (injectable for tests).
func NewBusAt(clock *power.Stopwatch) *Bus { return &Bus{clock: clock} }

// Publish stamps ev with a sequence number and a wall-clock offset and
// fans it out to every live subscription without blocking. Safe to call
// on a nil bus and after Close (both discard).
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	ev.Seq = b.seq.Add(1)
	ev.TMs = b.clock.ElapsedSeconds() * 1e3
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
}

// Subscribe registers a consumer with the given channel buffer (minimum
// 1). Returns nil if the bus is nil or already closed.
func (b *Bus) Subscribe(buffer int) *Subscription {
	return b.SubscribeNamed("anonymous", buffer)
}

// SubscribeNamed is Subscribe with a consumer name. The name labels the
// per-subscription drop counter at /metrics; subscriptions sharing a name
// share a counter series (their drops sum).
func (b *Bus) SubscribeNamed(name string, buffer int) *Subscription {
	if b == nil {
		return nil
	}
	if name == "" {
		name = "anonymous"
	}
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	s := &Subscription{name: name, ch: make(chan Event, buffer)}
	b.subs = append(b.subs, s)
	return s
}

// Unsubscribe removes s and closes its channel. No-op for nil or unknown
// subscriptions (including after Close, which already closed them all).
func (b *Bus) Unsubscribe(s *Subscription) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			b.retainDropsLocked(s)
			close(s.ch)
			return
		}
	}
}

// retainDropsLocked folds a departing subscription's drop count into the
// retained totals. Callers hold b.mu.
func (b *Bus) retainDropsLocked(s *Subscription) {
	if d := s.dropped.Load(); d > 0 {
		if b.dropTotals == nil {
			b.dropTotals = make(map[string]uint64)
		}
		b.dropTotals[s.name] += d
	}
}

// DropSamples reports per-subscription-name drop totals (live
// subscriptions plus retained counts from departed ones) as Prometheus
// samples labeled subscriber=<name>, sorted by name. Nil-safe.
func (b *Bus) DropSamples() []Sample {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	totals := make(map[string]uint64, len(b.dropTotals)+len(b.subs))
	for name, d := range b.dropTotals {
		totals[name] = d
	}
	for _, s := range b.subs {
		totals[s.name] += s.dropped.Load()
	}
	b.mu.Unlock()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, name := range names {
		out = append(out, Sample{
			Labels: [][2]string{{"subscriber", name}},
			Value:  float64(totals[name]),
		})
	}
	return out
}

// Close shuts the bus down: every subscription channel is closed (so SSE
// handlers and tracers drain and exit) and later publishes are
// discarded. Idempotent and nil-safe. The error is always nil; the
// io.Closer shape lets callers treat the bus like any other resource.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for _, s := range b.subs {
		b.retainDropsLocked(s)
		close(s.ch)
	}
	b.subs = nil
	return nil
}
