package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rldecide/internal/core"
	"rldecide/internal/param"
)

// Manifest is the sidecar that makes a journal shardable: it names the
// daemon that owns the study (with a generation counter bumped on every
// ownership handoff, so a re-homed study can tell a stale owner from the
// current one), the tenant that submitted it, and the sealed rotation
// segments in replay order. The manifest lives next to the journal as
// <base>.manifest.json and is rewritten atomically; a journal without a
// manifest is a legacy single-file journal owned by nobody.
type Manifest struct {
	Study      string   `json:"study"`
	Daemon     string   `json:"daemon,omitempty"`
	Generation int      `json:"generation"`
	Tenant     string   `json:"tenant,omitempty"`
	Segments   []string `json:"segments,omitempty"`
}

// ManifestPath returns the manifest sidecar path for a journal path
// (s0001.trials.jsonl -> s0001.trials.manifest.json).
func ManifestPath(journalPath string) string {
	return strings.TrimSuffix(journalPath, ".jsonl") + ".manifest.json"
}

// LoadManifest reads the manifest next to journalPath. A missing
// manifest is not an error: ok is false and the zero Manifest returns.
func LoadManifest(journalPath string) (m Manifest, ok bool, err error) {
	data, err := os.ReadFile(ManifestPath(journalPath))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("journal: manifest %s: %w", ManifestPath(journalPath), err)
	}
	return m, true, nil
}

// SaveManifest atomically rewrites the manifest next to journalPath
// (write to a temporary file in the same directory, then rename).
func SaveManifest(journalPath string, m Manifest) error {
	path := ManifestPath(journalPath)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// segmentPath names sealed segment n of a journal
// (s0001.trials.jsonl -> s0001.trials-3.jsonl).
func segmentPath(journalPath string, n int) string {
	return fmt.Sprintf("%s-%d.jsonl", strings.TrimSuffix(journalPath, ".jsonl"), n)
}

// segmentIndex parses the rotation index out of a segment path belonging
// to journalPath, or returns false for paths that are not its segments.
func segmentIndex(journalPath, seg string) (int, bool) {
	base := strings.TrimSuffix(journalPath, ".jsonl") + "-"
	rest, found := strings.CutPrefix(seg, base)
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".jsonl")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// SegmentFiles lists the sealed segments of a journal in replay order:
// the union of the manifest's segment list and any stray segment files on
// disk (a crash between the rotation rename and the manifest rewrite
// leaves a sealed segment the manifest does not know about — the union
// adopts it rather than silently dropping its trials), sorted by
// rotation index.
func SegmentFiles(journalPath string) ([]string, error) {
	m, _, err := LoadManifest(journalPath)
	if err != nil {
		return nil, err
	}
	onDisk, err := filepath.Glob(strings.TrimSuffix(journalPath, ".jsonl") + "-*.jsonl")
	if err != nil {
		return nil, err
	}
	return Segments(journalPath, m, onDisk), nil
}

// Segments is SegmentFiles from the journal's manifest, already read, and
// the paths of files on disk that may be its segments; paths that are not
// are ignored. A caller that lists a directory once for many journals
// hands each journal that listing, or the part of it that is its own.
func Segments(journalPath string, m Manifest, onDisk []string) []string {
	dir := filepath.Dir(journalPath)
	byIndex := map[int]string{}
	for _, name := range m.Segments {
		p := filepath.Join(dir, name)
		if n, ok := segmentIndex(journalPath, p); ok {
			byIndex[n] = p
		}
	}
	for _, p := range onDisk {
		if n, ok := segmentIndex(journalPath, p); ok {
			byIndex[n] = p
		}
	}
	indexes := make([]int, 0, len(byIndex))
	for n := range byIndex {
		indexes = append(indexes, n)
	}
	sort.Ints(indexes)
	out := make([]string, 0, len(indexes))
	for _, n := range indexes {
		out = append(out, byIndex[n])
	}
	return out
}

// ReadSegmented loads every record of a possibly-rotated journal:
// ReadSegmentedLines with Read's decoder, so a torn tail of the active
// file passes through as ErrTruncated with the valid prefix.
func ReadSegmented(journalPath string) ([]Record, error) {
	return ReadSegmentedLines(journalPath, decodeLine)
}

// RepairSegmented is RepairFile for rotated journals: sealed segments are
// read strictly, the active file's torn tail (if any) is trimmed in
// place, and the full record sequence returns. A journal with no files at
// all is empty, not an error.
func RepairSegmented(journalPath string) ([]Record, error) {
	segs, err := SegmentFiles(journalPath)
	if err != nil {
		return nil, err
	}
	return segmented(journalPath, segs, decodeLine, RepairLines[Record])
}

// RecoverSegmented is RepairSegmented and Trials in one pass: it reads and
// mends the journal as RepairSegmented does, but each line goes straight
// into a trial of space (trialDecoder). A record that reads but does not
// resolve — an unknown parameter, a rendering the space cannot take —
// fails the recovery after the repair, as Trials fails on it after
// RepairSegmented: it is never taken for a torn tail, even as the last
// line.
func RecoverSegmented(journalPath string, space *param.Space) ([]core.Trial, error) {
	segs, err := SegmentFiles(journalPath)
	if err != nil {
		return nil, err
	}
	return RecoverSegments(journalPath, segs, space)
}

// RecoverSegments is RecoverSegmented over the sealed segments segs, as
// SegmentFiles or Segments lists them.
func RecoverSegments(journalPath string, segs []string, space *param.Space) ([]core.Trial, error) {
	td := trialDecoder{rs: NewResolver(space)}
	var resolveErr error
	trials, err := segmented(journalPath, segs, func(line []byte, t *core.Trial) error {
		lineErr, err := td.decode(line, t)
		if resolveErr == nil {
			resolveErr = err
		}
		return lineErr
	}, RepairLines[core.Trial])
	if err == nil {
		err = resolveErr
	}
	if err != nil {
		return nil, err
	}
	return trials, nil
}

// SegWriter appends to a size-capped, rotating JSON Lines stream: the
// trial journals, the trace and the trajectory journals all go through
// it. Every Write must be whole lines. When the active file crosses
// maxBytes after a write, it is sealed: closed, renamed to the next
// <base>-<n>.jsonl segment, recorded in the manifest, and a fresh active
// file opened. So rotation happens on line boundaries only, sealed
// segments always end in a newline, and the torn-tail repair logic stays
// confined to the active file. The rename lands before the manifest
// rewrite — if the process dies between the two, SegmentFiles adopts the
// stray segment from disk.
type SegWriter struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	// guarded-by: mu
	file *os.File
	// guarded-by: mu
	n int64
	// rec encodes trial records for Append and hands each to Write.
	rec *Writer
}

// OpenSegmented opens (appending) the rotating stream at path. maxBytes
// <= 0 disables rotation: the writer behaves like a plain single file.
func OpenSegmented(path string, maxBytes int64) (*SegWriter, error) {
	f, n, err := openActive(path)
	if err != nil {
		return nil, err
	}
	s := &SegWriter{path: path, maxBytes: maxBytes, file: f, n: n}
	s.rec = NewWriter(s)
	return s, nil
}

// openActive opens the active file at path for appending, with its size.
func openActive(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// Append writes one trial record as one line.
func (s *SegWriter) Append(t core.Trial) error {
	return s.rec.Append(t)
}

// Write appends p, which must be whole lines, and rotates the active file
// afterwards if it crossed the size cap: one oversized write still lands
// in one piece, and the next starts a fresh segment.
func (s *SegWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.file.Write(p)
	s.n += int64(n)
	if err != nil {
		return n, err
	}
	if s.maxBytes > 0 && s.n >= s.maxBytes {
		if err := s.rotate(); err != nil {
			return n, fmt.Errorf("journal: rotate %s: %w", s.path, err)
		}
	}
	return n, nil
}

// rotate seals the active file as the next segment. Caller holds s.mu.
func (s *SegWriter) rotate() error {
	if err := s.file.Close(); err != nil {
		return err
	}
	segs, err := SegmentFiles(s.path)
	if err != nil {
		return err
	}
	next := 1
	for _, seg := range segs {
		if n, ok := segmentIndex(s.path, seg); ok && n >= next {
			next = n + 1
		}
	}
	sealed := segmentPath(s.path, next)
	if err := os.Rename(s.path, sealed); err != nil {
		return err
	}
	m, _, err := LoadManifest(s.path)
	if err != nil {
		return err
	}
	m.Segments = append(m.Segments, filepath.Base(sealed))
	if err := SaveManifest(s.path, m); err != nil {
		return err
	}
	f, n, err := openActive(s.path)
	if err != nil {
		return err
	}
	s.file, s.n = f, n
	return nil
}

// Close closes the active file.
func (s *SegWriter) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.file.Close()
}
