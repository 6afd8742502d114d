package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rldecide/internal/core"
	"rldecide/internal/obs"
)

func segTrial(id int) core.Trial {
	return core.Trial{
		ID:     id,
		Values: core.ValuesFromMap(map[string]float64{"m": float64(id)}),
		Seed:   uint64(id),
	}
}

func appendN(t *testing.T, w *SegWriter, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := w.Append(segTrial(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func assertIDs(t *testing.T, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.ID != i {
			t.Fatalf("record %d has ID %d: replay order broken", i, r.ID)
		}
	}
}

func TestSegWriterRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0001.trials.jsonl")
	// One encoded record is ~45 bytes; cap at 100 so rotation triggers
	// every couple of appends.
	w, err := OpenSegmented(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := SegmentFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several sealed segments, got %v", segs)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("sealed segment %s is empty", seg)
		}
	}

	m, ok, err := LoadManifest(path)
	if err != nil || !ok {
		t.Fatalf("manifest missing after rotation: %v %v", ok, err)
	}
	if len(m.Segments) != len(segs) {
		t.Fatalf("manifest lists %d segments, disk has %d", len(m.Segments), len(segs))
	}

	recs, err := ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, 20)

	recs, err = RepairSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, 20)
}

func TestSegWriterResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0001.trials.jsonl")
	w, err := OpenSegmented(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and keep appending: indexes continue, nothing is overwritten.
	w, err = OpenSegmented(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 7, 7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, 14)
}

// TestSegmentStrayAdoption pins the crash window between the rotation
// rename and the manifest rewrite: a sealed segment missing from the
// manifest must still be replayed, in index order.
func TestSegmentStrayAdoption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s0001.trials.jsonl")
	w, err := OpenSegmented(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 12)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: drop the last sealed segment from the manifest.
	m, ok, err := LoadManifest(path)
	if err != nil || !ok || len(m.Segments) < 2 {
		t.Fatalf("need >=2 manifest segments: %v %v %v", m.Segments, ok, err)
	}
	m.Segments = m.Segments[:len(m.Segments)-1]
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, 12)
}

// TestSegmentedTornTail: only the active file tolerates (and repairs) a
// torn tail; sealed segments must be intact.
func TestSegmentedTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0001.trials.jsonl")
	w, err := OpenSegmented(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the active file's tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":99,"par`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := RepairSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, len(before))

	// The repair rewrote the active file: a strict re-read is now clean.
	recs, err = ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, len(before))

	// A damaged sealed segment, by contrast, is corruption.
	segs, err := SegmentFiles(path)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	if err := os.WriteFile(segs[0], []byte(`{"id":0,"bro`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegmented(path); err == nil {
		t.Fatal("damaged sealed segment read cleanly")
	}
	if _, err := RepairSegmented(path); err == nil {
		t.Fatal("damaged sealed segment repaired silently")
	}
}

// TestTracerOverSegWriter streams a tracer into a SegWriter capped far
// below one batch: every sealed segment ends in a newline, and the rotated
// stream reads back every event in publish order.
func TestTracerOverSegWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	w, err := OpenSegmented(path, 200)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	defer bus.Close()
	tr := obs.NewTracer(bus, w)
	const n = 40
	for i := 0; i < n; i++ {
		bus.Publish(obs.Event{Kind: obs.KindTrialDone, Study: "s1", Trial: i, Status: "ok"})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events", tr.Dropped())
	}
	segs, err := SegmentFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("a 200-byte cap sealed no segment")
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[len(data)-1] != '\n' {
			t.Fatalf("sealed segment %s does not end in a newline", seg)
		}
	}
	events, err := ReadSegmentedLines(path, func(line []byte, ev *obs.Event) error {
		return json.Unmarshal(line, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("read %d events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Trial != i {
			t.Fatalf("event %d is trial %d: publish order broken", i, ev.Trial)
		}
	}
}

func TestSegWriterUnbounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0001.trials.jsonl")
	w, err := OpenSegmented(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := SegmentFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("maxBytes=0 must not rotate, got segments %v", segs)
	}
	recs, err := ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, 50)
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha-s0003.trials.jsonl")
	if _, ok, err := LoadManifest(path); ok || err != nil {
		t.Fatalf("missing manifest: ok=%v err=%v", ok, err)
	}
	in := Manifest{Study: "alpha-s0003", Daemon: "alpha", Generation: 2, Tenant: "acme",
		Segments: []string{"alpha-s0003.trials-1.jsonl"}}
	if err := SaveManifest(path, in); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(path)
	if err != nil || !ok {
		t.Fatalf("load: %v %v", ok, err)
	}
	if got.Study != in.Study || got.Daemon != in.Daemon || got.Generation != 2 ||
		got.Tenant != in.Tenant || len(got.Segments) != 1 {
		t.Fatalf("manifest round trip: %+v", got)
	}
	want := filepath.Join(filepath.Dir(path), "alpha-s0003.trials.manifest.json")
	if ManifestPath(path) != want {
		t.Fatalf("ManifestPath %q, want %q", ManifestPath(path), want)
	}
}

func TestSegmentIndexParsing(t *testing.T) {
	base := "/x/s0001.trials.jsonl"
	cases := []struct {
		seg string
		n   int
		ok  bool
	}{
		{"/x/s0001.trials-1.jsonl", 1, true},
		{"/x/s0001.trials-12.jsonl", 12, true},
		{"/x/s0001.trials-x.jsonl", 0, false},
		{"/x/s0001.trials.jsonl", 0, false},
		{"/x/s0002.trials-1.jsonl", 0, false},
	}
	for _, c := range cases {
		n, ok := segmentIndex(base, c.seg)
		if n != c.n || ok != c.ok {
			t.Errorf("segmentIndex(%q) = %d,%v want %d,%v", c.seg, n, ok, c.n, c.ok)
		}
	}
	if p := segmentPath(base, 3); p != "/x/s0001.trials-3.jsonl" {
		t.Errorf("segmentPath = %q", p)
	}
}

// Guard against the daemon-prefixed study IDs of the sharded control
// plane colliding in segment globs: alpha-s0001's segments must not be
// adopted by a journal named alpha-s0001x or alpha-s000.
func TestSegmentGlobIsolation(t *testing.T) {
	dir := t.TempDir()
	mine := filepath.Join(dir, "alpha-s0001.trials.jsonl")
	w, err := OpenSegmented(mine, 50)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "alpha-s0002.trials.jsonl")
	w, err = OpenSegmented(other, 50)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := SegmentFiles(mine)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if got := filepath.Base(s); got[:len("alpha-s0001")] != "alpha-s0001" {
			t.Fatalf("foreign segment adopted: %s", s)
		}
	}
	recs, err := ReadSegmented(mine)
	if err != nil {
		t.Fatal(err)
	}
	assertIDs(t, recs, 6)
}

func TestReadSegmentedMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.trials.jsonl")
	if _, err := ReadSegmented(path); !os.IsNotExist(err) {
		t.Fatalf("missing journal: %v", err)
	}
	recs, err := RepairSegmented(path)
	if err != nil || len(recs) != 0 {
		t.Fatalf("RepairSegmented on missing journal: %v %v", recs, err)
	}
}

func BenchmarkSegWriterAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.trials.jsonl")
	w, err := OpenSegmented(path, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	tr := segTrial(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ID = i
		if err := w.Append(tr); err != nil {
			b.Fatal(err)
		}
	}
}
