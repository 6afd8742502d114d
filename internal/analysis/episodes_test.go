package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rldecide/internal/journal"
	"rldecide/internal/rl"
)

// recordFleet records a small deterministic fleet of steer1d episodes
// with the registered pilot policy, stamped with (trial, index).
func recordFleet(t *testing.T, trials, perTrial int) []rl.Episode {
	t.Helper()
	spec, err := LookupEnv("steer1d")
	if err != nil {
		t.Fatal(err)
	}
	var eps []rl.Episode
	for trial := 0; trial < trials; trial++ {
		for i := 0; i < perTrial; i++ {
			seed := uint64(1000*trial + i)
			ep := rl.RecordEpisode(spec.Maker(seed), spec.Pilot)
			ep.Trial, ep.Index, ep.Env, ep.Seed = trial, i, "steer1d", seed
			eps = append(eps, ep)
		}
	}
	return eps
}

func TestEpisodeWriterRoundTrip(t *testing.T) {
	eps := recordFleet(t, 3, 2)
	path := filepath.Join(t.TempDir(), "s1.trajectories.jsonl")
	w := NewEpisodeWriter(path)
	// Record in scrambled completion order, concurrently — the shape a
	// parallel study produces.
	order := []int{4, 1, 5, 0, 3, 2}
	var wg sync.WaitGroup
	for _, i := range order {
		wg.Add(1)
		go func(ep rl.Episode) {
			defer wg.Done()
			w.Record(ep)
		}(eps[i])
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadEpisodes(path)
	if err != nil {
		t.Fatal(err)
	}
	// ReadEpisodes canonicalizes to (trial, index) order regardless of
	// completion order.
	if len(got) != len(eps) {
		t.Fatalf("got %d episodes, want %d", len(got), len(eps))
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(eps)
	if string(a) != string(b) {
		t.Fatalf("canonical read differs from recorded fleet:\n%s\n%s", a, b)
	}
	if got[0].Len() == 0 || len(got[0].States) != got[0].Len() {
		t.Fatalf("episode missing snapshots: len=%d states=%d", got[0].Len(), len(got[0].States))
	}

	// Torn tail: appending half a record keeps the valid prefix.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":9,"ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = ReadEpisodes(path)
	if !errors.Is(err, journal.ErrTruncated) {
		t.Fatalf("torn tail: err = %v, want ErrTruncated", err)
	}
	if len(got) != len(eps) {
		t.Fatalf("torn tail: got %d episodes, want %d", len(got), len(eps))
	}

	// The bytes are encoding/json's: one Encoder.Encode per episode.
	seq := filepath.Join(t.TempDir(), "seq.jsonl")
	sw := NewEpisodeWriter(seq)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, ep := range eps {
		sw.Record(ep)
		if err := enc.Encode(ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(seq); err != nil || !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("trajectory bytes differ from json.Encoder's (err=%v)", err)
	}

	// A writer that never records creates nothing and closes cleanly.
	idle := NewEpisodeWriter(filepath.Join(t.TempDir(), "never.jsonl"))
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idle.path); !os.IsNotExist(err) {
		t.Fatalf("idle writer created a file (err=%v)", err)
	}
}

func TestCacheSidecar(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "input.jsonl")
	if err := os.WriteFile(in, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(in)
	path := CachePath(dir, "s1", "traces")

	if _, ok := LoadCached(path, "traces", fp); ok {
		t.Fatal("hit on a cache that was never written")
	}
	if err := SaveCached(path, "traces", "s1", fp, map[string]int{"events": 3}); err != nil {
		t.Fatal(err)
	}
	raw, ok := LoadCached(path, "traces", fp)
	if !ok {
		t.Fatal("miss immediately after save")
	}
	var rep map[string]int
	if err := json.Unmarshal(raw, &rep); err != nil || rep["events"] != 3 {
		t.Fatalf("cached report = %s (err=%v)", raw, err)
	}
	// Wrong kind and stale fingerprint both miss.
	if _, ok := LoadCached(path, "attribution", fp); ok {
		t.Fatal("hit across kinds")
	}
	if err := os.WriteFile(in, []byte("x grew\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCached(path, "traces", Fingerprint(in)); ok {
		t.Fatal("hit after the input grew")
	}
	// Missing inputs still fingerprint (to a distinct value).
	if Fingerprint(in) == Fingerprint(filepath.Join(dir, "gone.jsonl")) {
		t.Fatal("missing file fingerprints like a present one")
	}
}
