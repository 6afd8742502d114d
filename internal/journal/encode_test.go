package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"rldecide/internal/core"
	"rldecide/internal/param"
)

// nastyStrings are the corner cases of encoding/json's string encoder:
// HTML-escaped punctuation, control characters, quotes and backslashes,
// invalid UTF-8 (becomes �), the JS line separators (U+2028/U+2029),
// multi-byte runes, and a literal replacement character.
var nastyStrings = []string{
	"",
	"plain",
	"<script>&amp;</script>",
	`quote " backslash \ slash /`,
	"ctrl\x00\x01\x1f\x7f",
	"tab\tnewline\ncr\rbs\bff\f",
	"bad\xff\xfeutf8",
	"truncated\xe2\x82",
	"line sep end",
	"日本語κόσμε",
	"literal � rune",
	"mix<& \xffあ\"\\\x02",
}

// nastyFloats cross the 'f'/'e' format boundaries of json's floatEncoder,
// including negative zero, subnormals, and the exponent-trim path.
var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.25,
	1e-6, 9.999999e-7, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
	1e21, 9.99e20, 1.2345e22, -3e300, math.MaxFloat64,
	math.Pi, 1.0 / 3.0, -123456.789, 201000, 46.5,
}

func randomNasty(rng *rand.Rand) string {
	s := nastyStrings[rng.IntN(len(nastyStrings))]
	if rng.IntN(3) == 0 {
		s += fmt.Sprintf("_%d", rng.IntN(1000))
	}
	return s
}

func randomValue(rng *rand.Rand) param.Value {
	switch rng.IntN(3) {
	case 0:
		return param.Int(int(rng.Int64()) - int(rng.Int64()))
	case 1:
		return param.Float(nastyFloats[rng.IntN(len(nastyFloats))] * (rng.Float64()*2 - 1))
	default:
		return param.Str(randomNasty(rng))
	}
}

func randomTrial(rng *rand.Rand) core.Trial {
	t := core.Trial{
		ID:   int(rng.Int64()>>32) - int(rng.Int64()>>33),
		Seed: rng.Uint64(),
	}
	for i, n := 0, rng.IntN(5); i < n; i++ {
		t.Params.Set(fmt.Sprintf("%s_%d", randomNasty(rng), i), randomValue(rng))
	}
	for i, n := 0, rng.IntN(4); i < n; i++ {
		t.Values.Set(fmt.Sprintf("m%d_%s", i, randomNasty(rng)), nastyFloats[rng.IntN(len(nastyFloats))])
	}
	if rng.IntN(3) == 0 {
		t.Pruned = true
	}
	switch rng.IntN(3) {
	case 0:
		t.Err = errors.New(randomNasty(rng))
	case 1:
		t.Err = errors.New("") // empty message: omitted, like omitempty
	}
	if rng.IntN(2) == 0 {
		t.Worker = randomNasty(rng)
	}
	if rng.IntN(2) == 0 {
		t.WallMs = nastyFloats[rng.IntN(len(nastyFloats))]
	}
	return t
}

// checkAppendRecord is the arena encoder's whole contract on one trial:
// AppendRecord produces exactly the bytes json.Encoder.Encode(FromTrial(t))
// produces, or refuses exactly when it refuses. It returns the line,
// rendered into dst's storage.
func checkAppendRecord(t *testing.T, dst []byte, tr core.Trial) []byte {
	t.Helper()
	var buf bytes.Buffer
	jsonErr := json.NewEncoder(&buf).Encode(FromTrial(tr))
	line, err := AppendRecord(dst[:0], tr)
	if (err != nil) != (jsonErr != nil) {
		t.Fatalf("AppendRecord err %v, json err %v\ntrial: %+v", err, jsonErr, tr)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(line, buf.Bytes()) {
		t.Fatalf("byte mismatch\n json: %q\narena: %q\ntrial: %+v", buf.Bytes(), line, tr)
	}
	return line
}

// TestAppendRecordMatchesJSON runs that contract over randomized trials
// covering every field combination and the string and float encoder corner
// cases. Shard re-homing and resume proofs compare journals byte-for-byte,
// so this is a correctness gate, not a style preference.
func TestAppendRecordMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 0x9))
	var scratch []byte
	for i := 0; i < 2000; i++ {
		scratch = checkAppendRecord(t, scratch, randomTrial(rng))
	}
}

// fuzzTrial spends data on a trial, field by field: any byte string is
// some trial, and every field — names and categorical values of arbitrary
// bytes (invalid UTF-8, control characters, quotes), every float64 bit
// pattern including NaN and ±Inf, either sign of int — is reachable.
func fuzzTrial(data []byte) core.Trial {
	next := func(n int) []byte {
		n = min(n, len(data))
		out := data[:n]
		data = data[n:]
		return out
	}
	b := func() byte {
		if x := next(1); len(x) == 1 {
			return x[0]
		}
		return 0
	}
	u64 := func() uint64 {
		var x [8]byte
		copy(x[:], next(8))
		return binary.LittleEndian.Uint64(x[:])
	}
	str := func() string { return string(next(int(b() % 24))) }
	f64 := func() float64 { return math.Float64frombits(u64()) }

	tr := core.Trial{ID: int(int64(u64())), Seed: u64()}
	for n := b() % 5; n > 0; n-- {
		name := str()
		switch b() % 3 {
		case 0:
			tr.Params.Set(name, param.Int(int(int64(u64()))))
		case 1:
			tr.Params.Set(name, param.Float(f64()))
		default:
			tr.Params.Set(name, param.Str(str()))
		}
	}
	for n := b() % 4; n > 0; n-- {
		tr.Values.Set(str(), f64())
	}
	flags := b()
	tr.Pruned = flags&1 != 0
	if flags&2 != 0 {
		tr.Err = errors.New(str())
	}
	if flags&4 != 0 {
		tr.Worker = str()
	}
	if flags&8 != 0 {
		tr.WallMs = f64()
	}
	return tr
}

// FuzzAppendRecord is TestAppendRecordMatchesJSON with the fuzzer choosing
// the trials — the standing condition for keeping a hand-written encoder
// beside encoding/json — and every line it writes is also put to the
// decoder's oracle, which gives that one structured input.
func FuzzAppendRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00" + // id 1, seed 42
		"\x02\x02lr\x01\x00\x00\x00\x00\x00\x00\xa0\x3f\x02fw\x02\x01a" + // lr=0.03125, fw="a"
		"\x01\x06reward\x00\x00\x00\x00\x00\x00\xf8\x3f" + // reward 1.5
		"\x0c\x02w1\x00\x00\x00\x00\x00\x00\x29\x40")) // worker w1, wall_ms 12.5
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff" + // id -1, seed max
		"\x01\x03<&>\x02\x05\"\\\n\xff\xe2" + // one categorical of escapes and broken UTF-8
		"\x01\x01m\x00\x00\x00\x00\x00\x00\xf8\x7f" + // NaN metric: both refuse
		"\x03\x04boom"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if line := checkAppendRecord(t, nil, fuzzTrial(data)); line != nil {
			checkDecodeRecord(t, bytes.TrimSuffix(line, []byte("\n")))
		}
	})
}

// TestAppendRecordRejectsNonFinite mirrors encoding/json: NaN or infinite
// metric values refuse to encode, and a refused Append leaves the journal
// untouched.
func TestAppendRecordRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var tr core.Trial
		tr.Values.Set("m", bad)
		if _, err := AppendRecord(nil, tr); err == nil {
			t.Fatalf("AppendRecord accepted %v", bad)
		}
		var sink bytes.Buffer
		w := NewWriter(&sink)
		if err := w.Append(tr); err == nil {
			t.Fatalf("Append accepted %v", bad)
		}
		if sink.Len() != 0 {
			t.Fatalf("refused append still wrote %q", sink.Bytes())
		}
	}
}

// TestAppendRecordGolden replays the checked-in journal fixture through
// Resolver.Trial and back through the arena encoder: the concatenated re-encoding
// must reproduce the fixture file byte-for-byte. The fixture itself is
// cross-checked against json.Encoder so the golden bytes stay anchored to
// encoding/json, not to the encoder under test.
func TestAppendRecordGolden(t *testing.T) {
	const path = "testdata/golden.jsonl"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	space := param.MustSpace(
		param.NewIntSet("order", 3, 5, 8),
		param.NewCategorical("fw", "a", "b", "<odd name&>"),
		param.NewFloatRange("lr", 0, 1),
	)
	var jsonOut bytes.Buffer
	enc := json.NewEncoder(&jsonOut)
	var arenaOut []byte
	for _, rec := range records {
		tr, err := NewResolver(space).Trial(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(FromTrial(tr)); err != nil {
			t.Fatal(err)
		}
		arenaOut, err = AppendRecord(arenaOut, tr)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(jsonOut.Bytes(), want) {
		t.Fatalf("fixture is stale vs encoding/json:\n got: %q\nwant: %q", jsonOut.Bytes(), want)
	}
	if !bytes.Equal(arenaOut, want) {
		t.Fatalf("arena encoder diverges from golden fixture:\n got: %q\nwant: %q", arenaOut, want)
	}
}

// TestWriterAppendAllocs gates the whole point of the arena encoder: a
// steady-state Append (scratch already grown) performs at most one
// allocation. This is what takes BenchmarkStudyOverhead's journal cost
// off the allocator entirely.
func TestWriterAppendAllocs(t *testing.T) {
	var tr core.Trial
	tr.ID = 41
	tr.Seed = 99
	tr.Params.Set("lr", param.Float(0.03125))
	tr.Params.Set("fw", param.Str("a"))
	tr.Values.Set("reward", 1.5)
	tr.Values.Set("time_min", 46)
	tr.Worker = "w1"
	tr.WallMs = 12.5
	w := NewWriter(discardWriter{})
	// Warm up: first call grows the scratch buffer.
	if err := w.Append(tr); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.Append(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state Append allocates %.1f times per record, want <= 1", allocs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
