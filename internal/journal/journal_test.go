package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rldecide/internal/core"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/search"
)

func testSpace() *param.Space {
	return param.MustSpace(
		param.NewIntSet("order", 3, 5, 8),
		param.NewCategorical("fw", "a", "b"),
		param.NewFloatRange("lr", 0, 1),
	)
}

func TestRecordRoundTrip(t *testing.T) {
	space := testSpace()
	orig := core.Trial{
		ID:     7,
		Params: param.Assign(param.Bind("order", param.Int(5)), param.Bind("fw", param.Str("b")), param.Bind("lr", param.Float(0.25))),
		Values: core.ValuesFromMap(map[string]float64{"reward": -0.5, "time": 46}),
		Seed:   1234,
	}
	rec := FromTrial(orig)
	back, err := NewResolver(space).Trial(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 7 || back.Seed != 1234 {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.Params.Value("order").Int() != 5 || back.Params.Value("fw").Str() != "b" {
		t.Fatalf("params lost: %v", back.Params)
	}
	if back.Params.Value("lr").Float() != 0.25 {
		t.Fatalf("float param lost: %v", back.Params.Value("lr"))
	}
	if back.Values.At("reward") != -0.5 {
		t.Fatal("values lost")
	}
}

// TestWallMsDecodeCompat pins the backward-compatibility contract for the
// informational wall_ms field: journals written before the field existed
// decode with WallMs zero, records carrying wall_ms round-trip it, and a
// zero wall_ms is omitted on encode so old and new writers produce the
// same bytes for untimed trials.
func TestWallMsDecodeCompat(t *testing.T) {
	// Pre-wall_ms journal line decodes cleanly with the zero value.
	old := `{"id":1,"values":{"m":2},"seed":9}` + "\n"
	recs, err := Read(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].WallMs != 0 {
		t.Fatalf("legacy record decoded wall_ms %v, want 0", recs[0].WallMs)
	}

	// A timed record carries the field through Read and Resolver.Trial/FromTrial.
	timed := `{"id":2,"values":{"m":3},"seed":10,"worker":"w1","wall_ms":12.5}` + "\n"
	recs, err = Read(strings.NewReader(timed))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].WallMs != 12.5 || recs[0].Worker != "w1" {
		t.Fatalf("timed record lost informational fields: %+v", recs[0])
	}
	tr, err := NewResolver(testSpace()).Trial(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tr.WallMs != 12.5 {
		t.Fatalf("Resolver.Trial dropped wall_ms: %+v", tr)
	}
	if back := FromTrial(tr); back.WallMs != 12.5 {
		t.Fatalf("FromTrial dropped wall_ms: %+v", back)
	}

	// Zero wall_ms is omitted on encode (byte-stable with old writers).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(core.Trial{ID: 3, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wall_ms") {
		t.Fatalf("zero wall_ms leaked into encoding: %s", buf.String())
	}
}

func TestErrorAndPrunedRoundTrip(t *testing.T) {
	space := testSpace()
	tr := core.Trial{
		ID:     1,
		Params: param.Assign(param.Bind("order", param.Int(3)), param.Bind("fw", param.Str("a")), param.Bind("lr", param.Float(0.5))),
		Err:    fmt.Errorf("boom"),
		Pruned: true,
	}
	back, err := NewResolver(space).Trial(FromTrial(tr))
	if err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != "boom" || !back.Pruned {
		t.Fatalf("flags lost: %+v", back)
	}
}

func TestWriteRead(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	space := testSpace()
	for i := 1; i <= 3; i++ {
		err := w.Append(core.Trial{
			ID:     i,
			Params: param.Assign(param.Bind("order", param.Int(3)), param.Bind("fw", param.Str("a")), param.Bind("lr", param.Float(0.1))),
			Values: core.ValuesFromMap(map[string]float64{"m": float64(i)}),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	trials, err := Trials(recs, space)
	if err != nil {
		t.Fatal(err)
	}
	if trials[2].Values.At("m") != 3 {
		t.Fatal("values wrong")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"id\":1}\nnot-json\n")); err == nil {
		t.Fatal("garbage line should error")
	}
}

func TestStudyJournaling(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)

	space := testSpace()
	study := &core.Study{
		CaseStudy: core.CaseStudy{Name: "journaled"},
		Space:     space,
		Explorer:  search.RandomSearch{},
		Metrics:   []core.Metric{{Name: "m", Direction: pareto.Maximize}},
		Ranker:    core.SortedRanker{By: "m"},
		Objective: func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			rec.Report("m", a.Value("lr").Float())
			return nil
		},
		Seed:    4,
		OnTrial: journalHook(t, w),
	}
	if _, err := study.Run(10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("journaled %d/10 trials", len(recs))
	}
	trials, err := Trials(recs, space)
	if err != nil {
		t.Fatal(err)
	}
	// The restored trials can be re-ranked offline.
	ranking := core.SortedRanker{By: "m"}.Rank(trials, []core.Metric{{Name: "m", Direction: pareto.Maximize}})
	best := trials[ranking.Ordered[0]]
	for _, tr := range trials {
		if tr.Values.At("m") > best.Values.At("m") {
			t.Fatal("offline re-ranking wrong")
		}
	}
}

// journalHook is a core.Study OnTrial hook appending every finished trial
// to w.
func journalHook(t *testing.T, w *Writer) func(core.Trial) {
	return func(tr core.Trial) {
		if err := w.Append(tr); err != nil {
			t.Errorf("journal write: %v", err)
		}
	}
}

func TestToTrialRejectsUnknownParam(t *testing.T) {
	rec := Record{ID: 1, Params: map[string]string{"nope": "1"}}
	if _, err := NewResolver(testSpace()).Trial(rec); err == nil {
		t.Fatal("unknown parameter should error")
	}
}

func TestParseValueFallbacks(t *testing.T) {
	space := testSpace()
	rec := Record{ID: 1, Params: map[string]string{
		"order": "8",
		"fw":    "b",
		"lr":    "0.125",
	}}
	tr, err := NewResolver(space).Trial(rec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Params.Value("order").Int() != 8 || tr.Params.Value("lr").Float() != 0.125 {
		t.Fatalf("parsed wrong: %v", tr.Params)
	}
	bad := Record{ID: 2, Params: map[string]string{"order": "9", "fw": "a", "lr": "0.1"}}
	if _, err := NewResolver(space).Trial(bad); err == nil {
		t.Fatal("out-of-space value should error")
	}
	// A number is the whole string: Sscanf("%g") used to stop at the first
	// byte it could not use (and skip leading space) and report success, so
	// these damaged renderings resumed as 0.5, 0.5, 100 and 0.5.
	wide := param.MustSpace(param.NewFloatRange("lr", 0, 1000), param.NewIntRange("n", 0, 1000))
	for _, raw := range []string{"0.5abc", "0.5 7", "1e2x", " 0.5", "0.5 ", "0.5\n"} {
		for _, name := range []string{"lr", "n"} {
			if tr, err := NewResolver(wide).Trial(Record{Params: map[string]string{name: raw}}); err == nil {
				t.Errorf("%s=%q resumed as %v, want an error", name, raw, tr.Params.Value(name))
			}
		}
	}
	// A categorical option that merely starts like a number is still itself.
	odd := param.MustSpace(param.NewCategorical("tag", "0.5abc", "x"))
	tr, err = NewResolver(odd).Trial(Record{Params: map[string]string{"tag": "0.5abc"}})
	if err != nil || tr.Params.Value("tag") != param.Str("0.5abc") {
		t.Fatalf("categorical fallback: %v, %v", tr.Params, err)
	}
}

// parseValueSscanf is parseValue as it was before the grid table and the
// whole-string parse: the reference for TestValueMatchesSscanfParse.
func parseValueSscanf(p param.Param, raw string) (param.Value, error) {
	for _, v := range p.Enumerate() {
		if v.String() == raw {
			return v, nil
		}
	}
	var f float64
	if _, err := fmt.Sscanf(raw, "%g", &f); err == nil {
		v := param.Float(f)
		if p.Contains(v) {
			return v, nil
		}
		iv := param.Int(int(f))
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

// TestValueMatchesSscanfParse: for every kind of parameter and every
// well-formed raw — a rendering the writer can produce, or a number in
// another spelling — the resolver returns exactly what the per-record
// enumerate-and-Sscanf function returned, the grid points bit for bit, and
// fails where it failed. Through Trials and through one Resolver.Trial alike.
func TestValueMatchesSscanfParse(t *testing.T) {
	grid7 := param.NewFloatRange("third", 0, 1)
	grid7.GridPoints = 7                                  // 1/6, 1/3, ...: grid values that 4 digits do not round-trip
	flat := param.NewFloatRange("flat", 1.00001, 1.00002) // every grid point renders "1"
	params := []param.Param{
		param.NewCategorical("fw", "a", "b", "1.5", "<odd name&>", "NaN"),
		param.NewIntSet("order", 3, 5, 8, -2),
		param.NewIntRange("n", -3, 40),
		param.NewFloatRange("lr", -1, 1),
		param.NewLogFloatRange("eps", 1e-8, 1e3),
		grid7, flat,
	}
	space := param.MustSpace(params...)
	raws := []string{"", "a", "b", "c", "<odd name&>", "NaN", "nan", "Inf", "+Inf", "-Inf", "inf",
		"0", "-0", "1", "-1", "3", "5", "8", "-2", "40", "41", "-3", "-4", "7.9", "1.5", "05", "+5", "5.0",
		"0.5", "-0.25", "1e-08", "1e+03", "1e3", "1E3", "0.001", ".5", "5.", "1e999", "-1e999", "1e-999",
		"0.3333", "0.1667", "1.00001", "1.000015", "9007199254740993", "0x10", "0x1p-2", "1_0"}
	rng := rand.New(rand.NewPCG(15, 0xd))
	for _, p := range params {
		for _, v := range p.Enumerate() {
			raws = append(raws, v.String())
		}
		for i := 0; i < 50; i++ {
			raws = append(raws, p.Sample(rng).String())
		}
	}
	same := func(a, b param.Value) bool {
		return a.Kind() == b.Kind() && a.Str() == b.Str() && a.Int() == b.Int() &&
			math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	var records []Record
	var want []param.Value
	rs := NewResolver(space)
	for _, p := range params {
		for _, raw := range raws {
			wantV, wantErr := parseValueSscanf(p, raw)
			rec := Record{Params: map[string]string{p.Name(): raw}}
			tr, err := rs.Trial(rec)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s=%q: err %v, Sscanf parse err %v", p.Name(), raw, err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s=%q: error %q, was %q", p.Name(), raw, err, wantErr)
				}
				continue
			}
			if got := tr.Params.Value(p.Name()); !same(got, wantV) {
				t.Fatalf("%s=%q: resolved %#v, Sscanf parse %#v", p.Name(), raw, got, wantV)
			}
			records = append(records, rec)
			want = append(want, wantV)
		}
	}
	trials, err := Trials(records, space)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trials {
		if len(tr.Params) != 1 || !same(tr.Params[0].Value, want[i]) {
			t.Fatalf("Trials record %d %v: resolved %#v, want %#v", i, records[i].Params, tr.Params, want[i])
		}
	}
}

// TestResolverIntRangeIsNotEnumerated: an IntRange has no table — building
// one for [0, 2^40] cannot finish — and resolves through the parse alone
// to what the table gave: the int itself, truncated where raw has a
// fraction, and exact past 2^53 where a float64 is not.
func TestResolverIntRangeIsNotEnumerated(t *testing.T) {
	space := param.MustSpace(
		param.NewIntRange("small", 0, 8192),
		param.NewIntRange("huge", -5, 1<<40),
		param.NewIntRange("all", 0, math.MaxInt64),
	)
	rs := NewResolver(space)
	resolve := func(name, raw string) (param.Value, error) {
		tr, err := rs.Trial(Record{Params: map[string]string{name: raw}})
		return tr.Params.Value(name), err
	}
	for i := 0; i <= 8192; i++ {
		if v, err := resolve("small", param.Int(i).String()); err != nil || v != param.Int(i) {
			t.Fatalf("small=%d resolved to %#v, %v", i, v, err)
		}
	}
	for raw, want := range map[string]int{
		"-5": -5, "0": 0, "1099511627776": 1 << 40, "123456789012": 123456789012, "7.9": 7, "1e3": 1000, "+5": 5,
	} {
		if v, err := resolve("huge", raw); err != nil || v != param.Int(want) {
			t.Fatalf("huge=%q resolved to %#v, %v; want %d", raw, v, err, want)
		}
	}
	for _, raw := range []string{"-6", "1099511627777", "8193x", ""} {
		if v, err := resolve("huge", raw); err == nil {
			t.Fatalf("huge=%q resolved to %#v, want an error", raw, v)
		}
	}
	if v, err := resolve("small", "8193"); err == nil {
		t.Fatalf("small=8193 resolved to %#v, want an error", v)
	}
	const odd = 1<<53 + 1 // the first integer a float64 cannot hold
	if v, err := resolve("all", param.Int(odd).String()); err != nil || v != param.Int(odd) {
		t.Fatalf("all=%d resolved to %#v, %v", odd, v, err)
	}
	// Trials shares the resolver: recovery does not enumerate either.
	trials, err := Trials([]Record{{ID: 1, Params: map[string]string{"huge": "1099511627775"}}}, space)
	if err != nil || trials[0].Params.Value("huge") != param.Int(1<<40-1) {
		t.Fatalf("Trials: %v, %v", trials, err)
	}
}

func TestReadTruncatedFinalLine(t *testing.T) {
	// A crash mid-append leaves a torn final line; Read must return the
	// valid prefix plus ErrTruncated.
	in := `{"id":1,"params":{"fw":"a"},"seed":1}
{"id":2,"params":{"fw":"b"},"seed":2}
{"id":3,"params":{"fw":`
	recs, err := Read(strings.NewReader(in))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v want ErrTruncated", err)
	}
	if len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 2 {
		t.Fatalf("prefix lost: %+v", recs)
	}
}

func TestReadMidFileCorruptionStillFails(t *testing.T) {
	in := "{\"id\":1}\ngarbage\n{\"id\":2}\n"
	recs, err := Read(strings.NewReader(in))
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-file corruption must be a hard error, got %v (%d recs)", err, len(recs))
	}
}

func TestRepairFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	torn := "{\"id\":1,\"seed\":9}\n{\"id\":2,\"se"
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != 1 || recs[0].Seed != 9 {
		t.Fatalf("repair kept wrong records: %+v", recs)
	}
	// The torn tail must be gone, so a reopened writer appends on a clean
	// line instead of extending the dead record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	if err := w.Append(core.Trial{ID: 2, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].ID != 2 || recs[1].Seed != 7 {
		t.Fatalf("post-repair append broken: %+v", recs)
	}

	// Missing file: empty journal, no error.
	if recs, err := RepairFile(filepath.Join(dir, "absent.jsonl")); err != nil || len(recs) != 0 {
		t.Fatalf("missing file: %v %v", recs, err)
	}
}

// tornWriter forwards bytes to a file but "crashes" after limit bytes —
// simulating a process death in the middle of a buffered flush, where the
// kernel persisted only a prefix of the flushed record.
type tornWriter struct {
	f     *os.File
	limit int
	n     int
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if tw.n >= tw.limit {
		return 0, errors.New("torn: crashed")
	}
	if tw.n+len(p) > tw.limit {
		k := tw.limit - tw.n
		_, _ = tw.f.Write(p[:k])
		tw.n = tw.limit
		return k, errors.New("torn: crashed mid-write")
	}
	n, err := tw.f.Write(p)
	tw.n += n
	return n, err
}

func TestCrashMidFlushRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	t1 := core.Trial{ID: 1, Seed: 11}
	t2 := core.Trial{ID: 2, Seed: 22}

	// Learn the encoded sizes so the crash lands mid-record-2.
	var buf bytes.Buffer
	sizer := NewWriter(&buf)
	if err := sizer.Append(t1); err != nil {
		t.Fatal(err)
	}
	len1 := buf.Len()
	if err := sizer.Append(t2); err != nil {
		t.Fatal(err)
	}
	len2 := buf.Len() - len1

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(&tornWriter{f: f, limit: len1 + len2/2})
	if err := w.Append(t1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(t2); err == nil {
		t.Fatal("crash mid-flush must surface as an append error")
	}
	f.Close()

	// Resume: repair trims the torn tail, keeping the intact prefix.
	recs, err := RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != 1 || recs[0].Seed != 11 {
		t.Fatalf("repair kept wrong records: %+v", recs)
	}

	// The re-run appends the lost trial on a clean line.
	f2, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(f2).Append(t2); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	recs, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].ID != 2 || recs[1].Seed != 22 {
		t.Fatalf("post-repair append broken: %+v", recs)
	}
}

// TestRepairTerminatesUnterminatedRecord: a crash can persist all of a
// record's `{...}\n` but the newline. The record reads back whole, so
// nothing is truncated — but the resumed run's first append must not land
// on its line, or the next restart finds `{...}{...}` and fails (or, on
// the last line, silently drops two finished trials).
func TestRepairTerminatesUnterminatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0001.trials.jsonl")
	intact := `{"id":1,"params":{},"seed":1}` + "\n" + `{"id":2,"params":{},"seed":2}`
	if err := os.WriteFile(path, []byte(intact), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RepairSegmented(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("first restart: %d records, %v", len(recs), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != intact+"\n" {
		t.Fatalf("repair must only add the newline:\n got %q\nwant %q", raw, intact+"\n")
	}
	w, err := OpenSegmented(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := 3; id <= 4; id++ {
		if err := w.Append(core.Trial{ID: id, Seed: uint64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = RepairSegmented(path)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("second restart kept %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.ID != i+1 {
			t.Fatalf("record %d has id %d", i, r.ID)
		}
	}
}

// TestRepairKeepsPrefixBytes: repair cuts the torn line off and touches
// nothing before it — no record is re-encoded, even one that encoding/json
// would write differently (key order, spacing, a blank line).
func TestRepairKeepsPrefixBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	prefix := `{"seed":9, "id":1}` + "\n\n" + `{"id":2,"params":{"lr":"0.5"},"seed":3}` + "\r\n"
	if err := os.WriteFile(path, []byte(prefix+`{"id":3,"par`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RepairFile(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("repair: %d records, %v", len(recs), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != prefix {
		t.Fatalf("repaired file:\n got %q\nwant %q", raw, prefix)
	}
}

// TestConcurrentAppendUnderParallelStudy drives the OnTrial observer from
// a Parallelism > 1 study (run under -race in CI): every finished trial
// must land in the journal exactly once, each on its own line.
func TestConcurrentAppendUnderParallelStudy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	space := testSpace()
	study := &core.Study{
		CaseStudy:   core.CaseStudy{Name: "parallel-journal"},
		Space:       space,
		Explorer:    search.RandomSearch{},
		Metrics:     []core.Metric{{Name: "m", Direction: pareto.Maximize}},
		Ranker:      core.SortedRanker{By: "m"},
		Parallelism: 8,
		Objective: func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			rec.Report("m", a.Value("lr").Float())
			return nil
		},
		Seed:    11,
		OnTrial: journalHook(t, w),
	}
	if _, err := study.Run(64); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 64 {
		t.Fatalf("journaled %d/64 trials", len(recs))
	}
	ids := map[int]bool{}
	for _, r := range recs {
		if ids[r.ID] {
			t.Fatalf("trial %d journaled twice", r.ID)
		}
		ids[r.ID] = true
	}
}

// TestJournalResumeRoundTrip interrupts a campaign after half its budget,
// restores the journal into a fresh study via Resume, and checks the
// completed campaign matches an uninterrupted one exactly.
func TestJournalResumeRoundTrip(t *testing.T) {
	space := testSpace()
	metrics := []core.Metric{{Name: "m", Direction: pareto.Maximize}}
	newStudy := func(onTrial func(core.Trial)) *core.Study {
		return &core.Study{
			CaseStudy: core.CaseStudy{Name: "roundtrip"},
			Space:     space,
			Explorer:  search.RandomSearch{},
			Metrics:   metrics,
			Ranker:    core.SortedRanker{By: "m"},
			Objective: func(a param.Assignment, seed uint64, rec *core.Recorder) error {
				rec.Report("m", a.Value("lr").Float()*float64(a.Value("order").Int()))
				return nil
			},
			Seed:    21,
			OnTrial: onTrial,
		}
	}

	full, err := newStudy(nil).Run(16)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	if _, err := newStudy(journalHook(t, w)).Run(8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Trials(recs, space)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newStudy(nil)
	if err := resumed.Resume(restored); err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 16 {
		t.Fatalf("resumed campaign has %d trials", len(rep.Trials))
	}
	for i := range rep.Trials {
		a, b := rep.Trials[i], full.Trials[i]
		if a.ID != b.ID || a.Params.Key() != b.Params.Key() || a.Seed != b.Seed || a.Values.At("m") != b.Values.At("m") {
			t.Fatalf("trial %d diverged after journal round trip:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestFileReadMatchesStreamRead: a file's first read buffer is sized from
// the file, so reading a file must give its lines exactly as reading the
// same bytes as a stream does, for sizes on both sides of the 64 kB cap, a
// line longer than the first buffer, an unterminated last line and a torn
// one.
func TestFileReadMatchesStreamRead(t *testing.T) {
	decode := func(line []byte, v *string) error {
		if line[0] != '{' || line[len(line)-1] != '}' {
			return fmt.Errorf("not a value")
		}
		*v = string(line)
		return nil
	}
	line := func(n int) string { return "{" + strings.Repeat("x", n-2) + "}" } // n bytes
	const kb64 = 64 * 1024
	for name, body := range map[string]string{
		"empty":          "",
		"small":          line(30) + "\n" + line(40) + "\n",
		"unterminated":   line(30) + "\n" + line(40),
		"torn":           line(30) + "\n{xx",
		"cap-1":          line(kb64-2) + "\n",
		"cap":            line(kb64-1) + "\n",
		"cap+1":          line(kb64) + "\n",
		"cap unterm":     line(kb64),
		"long line":      line(100) + "\n" + line(3*kb64) + "\n" + line(50) + "\n",
		"long then torn": line(2*kb64) + "\n{" + strings.Repeat("y", kb64),
	} {
		path := filepath.Join(t.TempDir(), "lines.jsonl")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		// The values are the non-empty lines; a last one that is not a
		// value is a torn tail.
		var want []string
		var wantErr error
		for _, l := range strings.Split(body, "\n") {
			if l == "" {
				continue
			}
			if decode([]byte(l), new(string)) != nil {
				wantErr = ErrTruncated
				break
			}
			want = append(want, l)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := ReadLines(f, decode)
		f.Close()
		stream, streamErr := ReadLines(strings.NewReader(body), decode)
		if !errors.Is(gotErr, wantErr) || fmt.Sprint(gotErr) != fmt.Sprint(streamErr) ||
			len(got) != len(want) || len(stream) != len(want) {
			t.Fatalf("%s: file read %d values, %v; stream read %d, %v; want %d, %v",
				name, len(got), gotErr, len(stream), streamErr, len(want), wantErr)
		}
		for i := range want {
			if got[i] != want[i] || stream[i] != want[i] {
				t.Fatalf("%s: value %d differs", name, i)
			}
		}
	}
}
