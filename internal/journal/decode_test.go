package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"rldecide/internal/core"
	"rldecide/internal/jsonbytes"
	"rldecide/internal/param"
)

// checkDecodeRecord holds the fast decoder to json.Unmarshal on one line
// and reports whether the line was accepted.
func checkDecodeRecord(t *testing.T, line []byte) bool {
	t.Helper()
	accepted, err := jsonbytes.Differential(line, decodeRecord, func(b []byte, r *Record) error { return json.Unmarshal(b, r) })
	if err != nil {
		t.Fatal(err)
	}
	return accepted
}

// sphereTrial is a trial of the shape the service benchmark's studies
// journal: two float parameters, two metrics, a measured wall time, and a
// worker on every other one.
func sphereTrial(rng *rand.Rand, id int) core.Trial {
	x0, x1 := rng.Float64()*10-5, rng.Float64()*10-5
	tr := core.Trial{ID: id, Seed: rng.Uint64(), WallMs: rng.Float64()}
	tr.Params.Set("x0", param.Float(x0))
	tr.Params.Set("x1", param.Float(x1))
	tr.Values.Set("f", x0*x0+x1*x1)
	tr.Values.Set("cost", max(x0, -x0)+max(x1, -x1))
	if id%2 == 0 {
		tr.Worker = "alpha/w1"
	}
	return tr
}

// decodeSpace is what the trial decoder resolves against in its oracle:
// every parameter kind, a log range whose grid points do not survive their
// 4-digit rendering parsed back, and categorical options that need
// escaping or are not valid UTF-8 (which no line can carry back).
var decodeSpace = param.MustSpace(
	param.NewLogFloatRange("lr", 1e-5, 1e-1),
	param.NewFloatRange("x0", -5, 5),
	param.NewFloatRange("x1", -5, 5),
	param.NewIntRange("order", 3, 8),
	param.NewIntSet("batch", 16, 32, 64),
	param.NewCategorical("fw", "plain", "<script>&amp;</script>", `quote " backslash`, "日本語κόσμε", "bad\xff\xfeutf8"),
)

// spaceTrial is a trial of decodeSpace: a sample with, now and then, grid
// points in place of sampled values, a parameter left out or one the
// space lacks, no metrics, a failure or a pruning.
func spaceTrial(rng *rand.Rand, id int) core.Trial {
	tr := core.Trial{ID: id, Seed: rng.Uint64(), Params: decodeSpace.Sample(rng)}
	for i, p := range decodeSpace.Params() {
		switch rng.IntN(8) {
		case 0, 1:
			grid := p.Enumerate()
			tr.Params[i].Value = grid[rng.IntN(len(grid))]
		case 2:
			tr.Params = append(tr.Params[:i:i], tr.Params[i+1:]...)
			return tr
		}
	}
	if rng.IntN(20) == 0 {
		tr.Params.Set("unknown", param.Int(1))
	}
	for i, n := 0, rng.IntN(4); i < n; i++ {
		tr.Values.Set(fmt.Sprintf("m%d", i), nastyFloats[rng.IntN(len(nastyFloats))])
	}
	switch rng.IntN(6) {
	case 0:
		tr.Err = errors.New(randomNasty(rng))
	case 1:
		tr.Pruned = true
	}
	return tr
}

// recordLines generates journal lines for the decoders' oracles, without
// their newlines: the writer's own lines of sphere, space and nasty trials,
// and edits of them that are still JSON — a params member repeated ahead of
// the real one, an empty values object, no parameters at all.
func recordLines(t *testing.T, rng *rand.Rand, n int) [][]byte {
	t.Helper()
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var tr core.Trial
		switch i % 4 {
		case 0:
			tr = sphereTrial(rng, i)
		case 1:
			tr = randomTrial(rng)
		default:
			tr = spaceTrial(rng, i)
		}
		line, err := AppendRecord(nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		line = line[:len(line)-1] // Read's scanner drops the newline
		switch rng.IntN(8) {
		case 0:
			line = bytes.Replace(line, []byte(`"params":{`), []byte(`"params":{"x0":"99","lr":"b",`), 1)
			line = bytes.Replace(line, []byte(`,}`), []byte(`}`), 1)
		case 1:
			if !bytes.Contains(line, []byte(`"values":`)) {
				line = bytes.Replace(line, []byte(`},"`), []byte(`},"values":{},"`), 1)
			}
		case 2:
			tr.Params = nil
			if line, err = AppendRecord(line[:0], tr); err != nil {
				t.Fatal(err)
			}
			line = line[:len(line)-1]
		}
		out = append(out, line)
	}
	return out
}

func TestDecodeRecordMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0xdec))
	var line []byte
	encode := func(tr core.Trial) []byte {
		var err error
		if line, err = AppendRecord(line[:0], tr); err != nil {
			t.Fatal(err)
		}
		return line[:len(line)-1] // Read's scanner drops the newline
	}

	// The writer's plain lines must take the fast path, or it silently never
	// runs and every number in docs/perf.md "Recovery path" is encoding/json's.
	for id := 1; id <= 500; id++ {
		if l := encode(sphereTrial(rng, id)); !checkDecodeRecord(t, l) {
			t.Fatalf("declined a line of the writer's own plain form: %q", l)
		}
	}
	for _, tr := range []core.Trial{
		{},
		{ID: -7, Seed: 1<<64 - 1, Pruned: true, Err: bytes.ErrTooLarge, Worker: "κόσμε/w2", WallMs: 1e-9},
	} {
		if l := encode(tr); !checkDecodeRecord(t, l) {
			t.Fatalf("declined a line of the writer's own plain form: %q", l)
		}
	}

	// Generated lines (escapes, broken UTF-8, every float format, repeated
	// keys, empty objects) agree or are declined, whole and with one byte
	// overwritten, dropped or doubled.
	accepted := 0
	for _, l := range recordLines(t, rng, 4000) {
		if checkDecodeRecord(t, l) {
			accepted++
		}
		for _, damaged := range jsonbytes.Damaged(rng, l) {
			checkDecodeRecord(t, damaged)
		}
	}
	if accepted < 2000 {
		t.Fatalf("fast path accepted %d of 4000 generated lines", accepted)
	}
}

// checkDecodeTrial holds the trial decoder to the route it replaces,
// Resolver.Trial over decodeLine, on one line: the same line error, word
// for word, or a resolution error on both sides, or reflect.DeepEqual
// trials. It reports whether the line became a trial.
func checkDecodeTrial(t *testing.T, td *trialDecoder, line []byte) bool {
	t.Helper()
	var got core.Trial
	lineErr, resolveErr := td.decode(line, &got)
	var rec Record
	if wantErr := decodeLine(line, &rec); fmt.Sprint(lineErr) != fmt.Sprint(wantErr) {
		t.Fatalf("line %q: line error %v, the record route's %v", line, lineErr, wantErr)
	} else if wantErr != nil {
		return false
	}
	want, wantErr := td.rs.Trial(rec)
	if (resolveErr != nil) != (wantErr != nil) {
		t.Fatalf("line %q: resolution error %v, the record route's %v", line, resolveErr, wantErr)
	}
	if wantErr != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q\n decoder: %#v\n  record: %#v", line, got, want)
	}
	return true
}

func TestDecodeTrialMatchesRecordRoute(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0xdec))
	td := &trialDecoder{rs: NewResolver(decodeSpace)}
	var plain, resolved int
	for _, l := range recordLines(t, rng, 4000) {
		// The fast path must carry the writer's resolvable lines, or it
		// never runs and recovery reads at the record route's speed.
		if checkDecodeTrial(t, td, l) && decodeRecord(l, new(Record)) {
			plain++
		}
		for _, damaged := range jsonbytes.Damaged(rng, l) {
			if checkDecodeTrial(t, td, damaged) {
				resolved++
			}
		}
	}
	if plain < 1000 || resolved < 1000 {
		t.Fatalf("%d fast-path trials and %d from damaged lines of 4000", plain, resolved)
	}
}

// decodeSeeds are the hand-written lines both decoder fuzzers start from,
// beside the corpus under testdata/fuzz.
var decodeSeeds = []string{
	``,
	`{}`,
	`{"id":1,"params":{},"seed":42}`,
	`{"id":3,"params":{"fw":"b","lr":"0.03125","order":"5"},"values":{"huge":1.25e+21,"reward":-0.5,"tiny":2.5e-7},"seed":1234,"worker":"shard-0/w1","wall_ms":46.5}`,
	`{"id":2,"params":{},"pruned":true,"error":"boom","seed":7}`,
	`{"id":2,"params":{},"pruned":false,"error":"","seed":7,"worker":"","wall_ms":0}`,
	`{"id":2,"params":{},"error":"diverged <loss>","seed":7}`,
	`{"id":-0,"params":{"a":"1","a":"2"},"values":{},"seed":18446744073709551615}`,
	`{"id":9223372036854775808,"params":{},"seed":18446744073709551616}`,
	`{"id":1.0,"params":{},"seed":-0}`,
	`{"id":01,"params":{},"values":{"m":1e999,"n":-.5,"o":+1,"p":0x1p-2,"q":1_0,"r":Inf},"seed":1}`,
	`{"id":1,"params":null,"values":null,"seed":1}`,
	`{"seed":1,"params":{},"id":1}`,
	` {"id":1,"params":{},"seed":1} `,
	`{"id":1,"params":{},"seed":1}{"id":2,"params":{},"seed":2}`,
	`{"id":1,"params":{"k":"` + "\xff\xe2\x82" + `"},"seed":1}`,
	`{"id":1,"params":{"k":"tab` + "\t" + `"},"seed":1}`,
	`{"id":1,"params":{"x0":"-1.234",},"seed":1}`,
	`{"id":1,"params":{"x0":"-1.234"},"seed":1,"wall_ms":0.25,"worker":"w"}`,
	`{"id":1,"params":{"lr":"0.0001","order":"5","batch":"32","fw":"plain"},"values":{"m0":1},"seed":3}`,
	`{"id":1,"params":{"x0":"9","x0":"0.5","lr":"0.01"},"seed":3}`,
	`{"id":1,"params":{"x0":"0.5","unknown":"1"},"seed":3}`,
	`{"id":1,"params":{"fw":"\u003cscript\u003e\u0026amp;\u003c/script\u003e"},"seed":3}`,
}

// FuzzDecodeRecord puts arbitrary bytes to the same oracle.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeRecord(t, line)
	})
}

// FuzzDecodeTrial puts arbitrary bytes to the trial decoder's oracle, with
// one decoder across inputs, as recovery uses one across a journal.
func FuzzDecodeTrial(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	td := &trialDecoder{rs: NewResolver(decodeSpace)}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeTrial(t, td, line)
	})
}
