package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// syncBuffer guards a bytes.Buffer so the tracer goroutine and the test
// never race on it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestTracerJSONL(t *testing.T) {
	b := frozenBus()
	defer b.Close()
	var out syncBuffer
	tr := NewTracer(b, &out)
	if tr == nil {
		t.Fatal("NewTracer returned nil on live bus")
	}

	b.Publish(Event{Kind: KindTrialStart, Study: "s1", Trial: 3, Worker: "w1"})
	b.Publish(Event{Kind: KindTrialDone, Study: "s1", Trial: 3, Worker: "w1", Status: "ok", WallMs: 12.5})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d, want 2:\n%s", len(lines), out.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindTrialDone || ev.Seq != 2 || ev.Worker != "w1" || ev.WallMs != 12.5 {
		t.Fatalf("decoded event = %+v", ev)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestTracerDrainsOnBusClose(t *testing.T) {
	b := frozenBus()
	var out syncBuffer
	tr := NewTracer(b, &out)
	b.Publish(Event{Kind: "x"})
	b.Close() // closes the subscription; tracer drains and flushes
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"kind":"x"`) {
		t.Fatalf("event lost on bus close:\n%s", out.String())
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer dropped != 0")
	}
	closed := frozenBus()
	closed.Close()
	if NewTracer(closed, &bytes.Buffer{}) != nil {
		t.Fatal("NewTracer on closed bus != nil")
	}
}
