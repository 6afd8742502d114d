package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// rotatingFile is an io.WriteCloser over a size-capped file: when the
// active file crosses maxBytes, it is sealed by renaming to the next
// <base>-<n>.<ext> and a fresh active file opened. Rotation happens
// between Write calls, and the Tracer writes whole flushed batches of
// JSONL lines, so sealed trace segments end on line boundaries in
// practice (a torn line in a trace is cosmetic either way — traces are
// diagnostics, not replay inputs, unlike journals).
type rotatingFile struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	// guarded-by: mu
	f *os.File
	// guarded-by: mu
	n int64
}

// openRotating opens (truncating) the rotating file at path. maxBytes <= 0
// disables rotation.
func openRotating(path string, maxBytes int64) (*rotatingFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &rotatingFile{path: path, maxBytes: maxBytes, f: f}, nil
}

// Write appends p to the active file and seals it once it has crossed
// the cap — rotation happens after the write, so a single oversized batch
// still lands in one piece and the next batch starts a fresh segment.
func (r *rotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, err := r.f.Write(p)
	r.n += int64(n)
	if err != nil {
		return n, err
	}
	if r.maxBytes > 0 && r.n >= r.maxBytes {
		if err := r.rotate(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// rotate seals the active file as the next numbered segment. Caller
// holds r.mu.
func (r *rotatingFile) rotate() error {
	if err := r.f.Close(); err != nil {
		return err
	}
	ext := filepath.Ext(r.path)
	base := strings.TrimSuffix(r.path, ext)
	next := 1
	glob, err := filepath.Glob(base + "-*" + ext)
	if err != nil {
		return err
	}
	sort.Strings(glob)
	for _, g := range glob {
		idx := strings.TrimSuffix(strings.TrimPrefix(g, base+"-"), ext)
		if k, err := strconv.Atoi(idx); err == nil && k >= next {
			next = k + 1
		}
	}
	if err := os.Rename(r.path, fmt.Sprintf("%s-%d%s", base, next, ext)); err != nil {
		return err
	}
	f, err := os.Create(r.path)
	if err != nil {
		return err
	}
	r.f = f
	r.n = 0
	return nil
}

func (r *rotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Close()
}

var _ io.WriteCloser = (*rotatingFile)(nil)

// TraceFiles lists the on-disk files of a (possibly rotated) trace
// stream in read order: sealed <base>-<n>.<ext> segments sorted by
// index, then the active file at path itself. Non-numeric suffixes are
// skipped, so per-daemon streams sharing a directory (trace-alpha.jsonl
// next to trace-beta.jsonl) never pick up each other's segments. A
// stream that never rotated yields just the active file; a path that
// does not exist yields an empty list, not an error.
func TraceFiles(path string) ([]string, error) {
	ext := filepath.Ext(path)
	base := strings.TrimSuffix(path, ext)
	glob, err := filepath.Glob(base + "-*" + ext)
	if err != nil {
		return nil, err
	}
	type seg struct {
		idx  int
		path string
	}
	var segs []seg
	for _, g := range glob {
		idx := strings.TrimSuffix(strings.TrimPrefix(g, base+"-"), ext)
		if k, err := strconv.Atoi(idx); err == nil {
			segs = append(segs, seg{idx: k, path: g})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	out := make([]string, 0, len(segs)+1)
	for _, s := range segs {
		out = append(out, s.path)
	}
	if _, err := os.Stat(path); err == nil {
		out = append(out, path)
	}
	return out, nil
}

// OpenTracerRotating creates (truncating) the JSONL trace file at path
// and returns a tracer streaming to it. With maxBytes > 0 the stream
// rolls to <base>-<n>.jsonl segments so long-lived campaigns are bounded
// on disk; maxBytes <= 0 keeps one unbounded file.
func OpenTracerRotating(bus *Bus, path string, maxBytes int64) (*Tracer, error) {
	rf, err := openRotating(path, maxBytes)
	if err != nil {
		return nil, err
	}
	t := NewTracer(bus, rf)
	if t == nil {
		_ = rf.Close()
		return nil, nil
	}
	t.file = rf
	return t, nil
}
