package obs

import (
	"bufio"
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
	bw   *bufio.Writer
	file io.Closer
	done chan struct{}
	once sync.Once
	mu   sync.Mutex
	// guarded-by: mu
	err error
}

// traceBuffer is the subscription depth for tracers: deep enough to ride
// out fsync stalls at trial-event rates.
const traceBuffer = 1024

// NewTracer subscribes to bus and streams events to w until the
// subscription is cancelled (Close) or the bus shuts down. Returns nil
// if the bus is nil or closed.
func NewTracer(bus *Bus, w io.Writer) *Tracer {
	sub := bus.SubscribeNamed("tracer", traceBuffer)
	if sub == nil {
		return nil
	}
	t := &Tracer{
		bus:  bus,
		sub:  sub,
		bw:   bufio.NewWriter(w),
		done: make(chan struct{}),
	}
	go t.run()
	return t
}

// run drains the subscription. The writer flushes whenever the queue
// goes momentarily empty — batches under load, but a live daemon's
// trace.jsonl is complete up to the last quiet moment, not held hostage
// by the bufio buffer until shutdown.
func (t *Tracer) run() {
	defer close(t.done)
	enc := json.NewEncoder(t.bw)
	for {
		ev, open := <-t.sub.Events()
		if !open {
			break
		}
		t.encode(enc, ev)
	drain:
		for {
			select {
			case ev, open := <-t.sub.Events():
				if !open {
					break drain
				}
				t.encode(enc, ev)
			default:
				break drain
			}
		}
		if err := t.bw.Flush(); err != nil {
			t.setErr(err)
		}
	}
	if err := t.bw.Flush(); err != nil {
		t.setErr(err)
	}
}

func (t *Tracer) encode(enc *json.Encoder, ev Event) {
	if err := enc.Encode(ev); err != nil {
		t.setErr(err)
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

// Close cancels the subscription, waits for the drain goroutine to flush
// the remaining events, closes the underlying file (if OpenTracerRotating
// created one), and returns the first write error seen. Nil-safe and
// idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.once.Do(func() {
		t.bus.Unsubscribe(t.sub)
		<-t.done
		if t.file != nil {
			if err := t.file.Close(); err != nil {
				t.setErr(err)
			}
		}
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
