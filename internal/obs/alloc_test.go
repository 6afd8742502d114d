package obs

import (
	"testing"
)

// TestInstrumentAllocsZero pins the zero-allocation contract for every
// instrument update that sits on (or near) a training hot path: counters
// on env steps and journal appends, histogram observations on trial
// latency, and bus publishes on trial boundaries.
func TestInstrumentAllocsZero(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_c_total", "x")
	h := r.NewHistogram("alloc_h_seconds", "x", DurationBuckets)

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe: %.1f allocs, want 0", n)
	}
}

// TestBusPublishAllocsZero pins Publish at zero allocations both with no
// subscribers (the obs-off daemon configuration) and with a saturated
// subscriber (events dropped, producer never blocked, nothing allocated).
func TestBusPublishAllocsZero(t *testing.T) {
	b := frozenBus()
	defer b.Close()
	ev := Event{Kind: KindTrialDone, Study: "s", Trial: 1, Worker: "w", Status: "ok"}

	if n := testing.AllocsPerRun(1000, func() { b.Publish(ev) }); n != 0 {
		t.Errorf("Publish (no subscribers): %.1f allocs, want 0", n)
	}

	s := b.Subscribe(1)
	b.Publish(ev) // fill the buffer so subsequent publishes take the drop path
	if n := testing.AllocsPerRun(1000, func() { b.Publish(ev) }); n != 0 {
		t.Errorf("Publish (saturated subscriber): %.1f allocs, want 0", n)
	}
	_ = s

	var nilBus *Bus
	if n := testing.AllocsPerRun(1000, func() { nilBus.Publish(ev) }); n != 0 {
		t.Errorf("Publish (nil bus): %.1f allocs, want 0", n)
	}
}
