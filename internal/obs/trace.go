package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Tracer drains a bus subscription to a JSONL trace stream — one Event
// object per line, in publish order. It runs on its own goroutine so
// trace I/O never sits on the scheduler or executor path; if the tracer
// falls behind, the bus drops events for it (counted on the
// subscription) rather than blocking producers.
type Tracer struct {
	bus  *Bus
	sub  *Subscription
	w    io.Writer
	done chan struct{}
	once sync.Once
	mu   sync.Mutex
	// guarded-by: mu
	err error
}

const (
	// traceBuffer is the subscription depth for tracers: deep enough to
	// ride out fsync stalls at trial-event rates.
	traceBuffer = 1024
	// traceBatch is the batch size, in bytes, at which the tracer writes
	// even though more events are queued.
	traceBatch = 64 * 1024
)

// NewTracer subscribes to bus and streams events to w until the
// subscription is cancelled (Close) or the bus shuts down. Every Write to
// w is whole lines, so a journal.SegWriter can rotate between any two of
// them. Returns nil if the bus is nil or closed.
func NewTracer(bus *Bus, w io.Writer) *Tracer {
	sub := bus.SubscribeNamed("tracer", traceBuffer)
	if sub == nil {
		return nil
	}
	t := &Tracer{
		bus:  bus,
		sub:  sub,
		w:    w,
		done: make(chan struct{}),
	}
	go t.run()
	return t
}

// run drains the subscription into a batch and writes it whenever the
// queue goes momentarily empty or the batch reaches traceBatch — batches
// under load, but a live daemon's trace is complete up to the last quiet
// moment, not held back until shutdown.
func (t *Tracer) run() {
	defer close(t.done)
	var batch []byte
	for ev := range t.sub.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			t.setErr(err)
			continue
		}
		batch = append(append(batch, line...), '\n')
		if len(batch) >= traceBatch || len(t.sub.Events()) == 0 {
			if _, err := t.w.Write(batch); err != nil {
				t.setErr(err)
			}
			batch = batch[:0]
		}
	}
}

func (t *Tracer) setErr(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Dropped reports how many events the bus discarded because this tracer
// fell behind.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.sub.Dropped()
}

// Close cancels the subscription, waits for the drain goroutine to write
// the remaining events, and returns the first write error seen. The
// writer stays open: whoever opened it closes it. Nil-safe and idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.once.Do(func() {
		t.bus.Unsubscribe(t.sub)
		<-t.done
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
