package analysis

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"

	"rldecide/internal/journal"
	"rldecide/internal/rl"
)

// EpisodeWriter journals recorded trajectories as JSON Lines — one
// rl.Episode per line — through a journal.SegWriter, with the same crash
// posture as trial journals: each episode is one write of one whole line,
// so a crash tears at most the final line, which ReadEpisodes tolerates.
// Safe for concurrent use by parallel trials. The file opens lazily on
// the first Record (append mode, so resumed studies extend their
// journal), and a writer that never records creates nothing.
type EpisodeWriter struct {
	path string

	mu sync.Mutex
	// guarded-by: mu
	w *journal.SegWriter
	// guarded-by: mu
	err error
}

// NewEpisodeWriter returns a writer journaling to path.
func NewEpisodeWriter(path string) *EpisodeWriter {
	return &EpisodeWriter{path: path}
}

// Record implements rl.EpisodeSink. Write errors are latched and
// reported by Close; recording never fails the trial that produced the
// episode (analysis stays off the result path even when the disk fills).
func (w *EpisodeWriter) Record(ep rl.Episode) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	line, err := json.Marshal(ep)
	if err != nil {
		w.err = err
		return
	}
	if w.w == nil {
		if w.w, err = journal.OpenSegmented(w.path, 0); err != nil {
			w.err = err
			return
		}
	}
	if _, err := w.w.Write(append(line, '\n')); err != nil {
		w.err = err
	}
}

// Close closes the journal, returning the first error seen. Idempotent
// and safe on a writer that never recorded.
func (w *EpisodeWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.w != nil {
		if err := w.w.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.w = nil
	}
	return w.err
}

var _ rl.EpisodeSink = (*EpisodeWriter)(nil)

// ReadEpisodes loads a trajectory journal from disk and sorts it into
// canonical (trial, index) order. Parallel trials append in completion
// order, which varies run to run; the canonical sort is what makes the
// attribution and counterfactual reports byte-identical across repeated
// runs of the same campaign. A torn tail is tolerated (the error wraps
// journal.ErrTruncated); a missing file is an error — the caller decides
// whether absence means "recording was off" or "something is wrong".
func ReadEpisodes(path string) ([]rl.Episode, error) {
	eps, err := journal.ReadSegmentedLines(path, unmarshal[rl.Episode])
	if err != nil && !errors.Is(err, journal.ErrTruncated) {
		return nil, err
	}
	sort.SliceStable(eps, func(i, j int) bool {
		if eps[i].Trial != eps[j].Trial {
			return eps[i].Trial < eps[j].Trial
		}
		return eps[i].Index < eps[j].Index
	})
	return eps, err
}

// unmarshal is json.Unmarshal as a journal line decoder.
func unmarshal[T any](line []byte, v *T) error {
	return json.Unmarshal(line, v)
}

// sinkKey is the context key carrying an rl.EpisodeSink through the
// evaluation path.
type sinkKey struct{}

// WithEpisodeSink returns a context carrying sink for trajectory-aware
// objectives to discover. The daemon attaches a per-study EpisodeWriter
// on locally executed trials; worker-side evaluation carries none, so
// fleet-mode trials record nothing (the daemon cannot reach a remote
// worker's disk).
func WithEpisodeSink(ctx context.Context, sink rl.EpisodeSink) context.Context {
	return context.WithValue(ctx, sinkKey{}, sink)
}

// EpisodeSinkFrom extracts the sink attached by WithEpisodeSink, or nil.
func EpisodeSinkFrom(ctx context.Context) rl.EpisodeSink {
	sink, _ := ctx.Value(sinkKey{}).(rl.EpisodeSink)
	return sink
}
