// Package journal persists study trials as JSON Lines so long campaigns
// survive interruption and results can be re-ranked or re-plotted without
// re-running the training. A journal file is append-only: one record per
// finished trial.
//
// The package is also the one implementation of an append-only JSON Lines
// stream: SegWriter writes and rotates every stream a daemon keeps (trial
// journals, the trace, trajectory journals), ReadLines and
// ReadSegmentedLines read any of them back, and RepairLines mends any of
// them, with one torn-tail rule.
//
// Both directions of the codec are specialised to the Record schema and
// pinned to encoding/json, which stays the definition of the format:
// AppendRecord (encode.go) writes exactly json.Encoder's bytes, and
// decodeRecord (decode.go) reads back exactly those bytes, leaving any
// other line to json.Unmarshal. A daemon recovers a study with
// RecoverSegmented, which reads each line straight into a core.Trial
// through the same walk of that byte form (trialDecoder) and mends the
// journal in the same pass; Read → []Record → Trials is the route for
// callers that want the records themselves. RepairFile mends a crashed
// file in place, by truncating or terminating its last line, without
// rewriting the records before it.
package journal

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"rldecide/internal/core"
	"rldecide/internal/obs"
	"rldecide/internal/param"
)

// Journal I/O instruments (process-wide; exposed at GET /metrics). Pure
// atomic counters off the result path: they never influence what gets
// written.
var (
	metricAppends = obs.Default.NewCounter("rldecide_journal_appends_total",
		"Trial records appended across all journals.")
	metricAppendErrors = obs.Default.NewCounter("rldecide_journal_append_errors_total",
		"Failed journal appends (encode or write errors).")
)

// Record is the on-disk form of one trial. Worker attributes the trial to
// the executor that evaluated it; WallMs is the trial's measured
// wall-clock compute time in milliseconds. Both are informational:
// journals written before either field existed decode with them zero, and
// replay/ranking/determinism fingerprints ignore them, so old campaigns
// resume unchanged and fleet journals compare byte-identical modulo these
// fields.
type Record struct {
	ID     int                `json:"id"`
	Params map[string]string  `json:"params"`
	Values map[string]float64 `json:"values,omitempty"`
	Pruned bool               `json:"pruned,omitempty"`
	Error  string             `json:"error,omitempty"`
	Seed   uint64             `json:"seed"`
	Worker string             `json:"worker,omitempty"`
	WallMs float64            `json:"wall_ms,omitempty"`
}

// FromTrial converts a finished trial.
func FromTrial(t core.Trial) Record {
	r := Record{
		ID:     t.ID,
		Params: map[string]string{},
		Values: t.Values.Map(),
		Pruned: t.Pruned,
		Seed:   t.Seed,
		Worker: t.Worker,
		WallMs: t.WallMs,
	}
	for _, b := range t.Params {
		r.Params[b.Name] = b.Value.String()
	}
	if t.Err != nil {
		r.Error = t.Err.Error()
	}
	return r
}

// Resolver turns journal records back into trials of one space, resolving
// each raw parameter rendering to the value it came from (so ints stay
// ints, categoricals stay strings and a grid point comes back bit for
// bit). Everything it looks up is built by NewResolver; afterwards it is
// only read, so one Resolver serves any number of goroutines.
type Resolver struct {
	params map[string]grid
}

// grid is one parameter and, where its values' renderings are worth
// tabulating, the rendering → value table of its enumeration.
type grid struct {
	p      param.Param
	byText map[string]param.Value
}

// NewResolver builds the resolver of space: one Enumerate per parameter,
// each value filed under its canonical rendering (the earliest, where
// several render alike). An IntRange gets no table — its enumeration is
// every integer of the interval, and an integer's rendering parses back
// exactly, which a float's 4-digit rendering does not.
func NewResolver(space *param.Space) *Resolver {
	rs := &Resolver{params: make(map[string]grid, len(space.Params()))}
	for _, p := range space.Params() {
		g := grid{p: p}
		if _, ok := p.(param.IntRange); !ok {
			points := p.Enumerate()
			g.byText = make(map[string]param.Value, len(points))
			for _, v := range points {
				text := v.String()
				if _, dup := g.byText[text]; !dup {
					g.byText[text] = v
				}
			}
		}
		rs.params[p.Name()] = g
	}
	return rs
}

// Trial converts one record back into the trial it was written from.
func (rs *Resolver) Trial(r Record) (core.Trial, error) {
	t := r.head()
	t.Params = make(param.Assignment, 0, len(r.Params))
	t.Values = core.ValuesFromMap(r.Values)
	for name, raw := range r.Params {
		v, err := rs.value(name, raw)
		if err != nil {
			return t, err
		}
		t.Params.Set(name, v)
	}
	return t, nil
}

// head is the trial r was written from, but for its parameters and
// metrics.
func (r Record) head() core.Trial {
	t := core.Trial{ID: r.ID, Pruned: r.Pruned, Seed: r.Seed, Worker: r.Worker, WallMs: r.WallMs}
	if r.Error != "" {
		t.Err = fmt.Errorf("%s", r.Error)
	}
	return t
}

// value resolves raw against the named parameter's table first: a raw
// equal to a grid point's canonical rendering yields that exact grid
// value, which a 4-digit rendering parsed back would not. Everything else
// is parsed.
func (rs *Resolver) value(name, raw string) (param.Value, error) {
	g, ok := rs.params[name]
	if !ok {
		return param.Value{}, fmt.Errorf("journal: unknown parameter %q", name)
	}
	if v, ok := g.byText[raw]; ok {
		return v, nil
	}
	return parseValue(g.p, raw)
}

// parseValue resolves a raw that is none of p's grid renderings: a number
// — the whole string, so a damaged "0.5abc" fails like any other corruption
// instead of resuming as 0.5 — is a float or, truncated, an int if p
// contains it; anything p contains as a string is that string.
func parseValue(p param.Param, raw string) (param.Value, error) {
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		v := param.Float(f)
		if p.Contains(v) {
			return v, nil
		}
		iv := param.Int(int(f))
		if i, err := strconv.Atoi(raw); err == nil {
			iv = param.Int(i) // exact past 2^53, where f is not
		}
		if p.Contains(iv) {
			return iv, nil
		}
	}
	sv := param.Str(raw)
	if p.Contains(sv) {
		return sv, nil
	}
	return param.Value{}, fmt.Errorf("journal: cannot parse %q for parameter %q", raw, p.Name())
}

// Writer appends trial records to an io.Writer (typically a file), safe
// for concurrent use by parallel studies. Each record is rendered into a
// writer-owned scratch buffer by the arena encoder (AppendRecord —
// byte-identical to what encoding/json produced for FromTrial, see
// encode.go) and handed to the underlying writer as one Write of one
// whole line, so a crash can tear at most the final record's tail — down
// to losing only its newline; RepairFile truncates the torn line away, or
// supplies the newline, on resume. Steady-state appends allocate nothing:
// the scratch buffer is reused across records.
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	scratch []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Append writes one trial to the underlying writer.
func (w *Writer) Append(t core.Trial) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	line, err := AppendRecord(w.scratch[:0], t)
	if err != nil {
		// Nothing was staged: like the JSON encoder, an unencodable trial
		// (NaN/Inf metric) leaves the journal untouched.
		metricAppendErrors.Inc()
		return err
	}
	w.scratch = line
	if _, err := w.w.Write(line); err != nil {
		metricAppendErrors.Inc()
		return err
	}
	metricAppends.Inc()
	return nil
}

// ErrTruncated reports that the journal's final record was cut short —
// the signature of a crash in the middle of an append. Read returns it
// alongside the valid record prefix, so resumable consumers can keep the
// intact records (errors.Is(err, ErrTruncated)) while strict consumers
// still see an error.
var ErrTruncated = errors.New("journal: truncated final record")

// Read loads all records from r. A malformed final line yields the valid
// prefix plus an error wrapping ErrTruncated; malformed lines followed by
// further records are corruption and fail the whole read. Lines in the
// writer's own byte form are decoded directly (decodeRecord); every other
// line, and so every verdict on a malformed one, is json.Unmarshal's.
func Read(r io.Reader) ([]Record, error) {
	return ReadLines(r, decodeLine)
}

// ReadFile loads all records from path.
func ReadFile(path string) ([]Record, error) {
	return readFile(path, decodeLine)
}

// RepairFile reads path tolerating a truncated final record and leaves the
// file ending on a record boundary, so that later appends start on a fresh
// line instead of extending the last one: a torn final line is cut off by
// truncating the file where it starts, and a final record that is whole
// but lost its newline (the crash persisted all of `{...}\n` but the last
// byte) gets the newline. The intact records are never rewritten. A
// missing file is an empty journal. Any other read error is returned as
// is, with the file untouched.
func RepairFile(path string) ([]Record, error) {
	return RepairLines(path, decodeLine)
}

// Trials converts records back into trials against space.
func Trials(records []Record, space *param.Space) ([]core.Trial, error) {
	rs := NewResolver(space)
	out := make([]core.Trial, 0, len(records))
	for _, r := range records {
		t, err := rs.Trial(r)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
