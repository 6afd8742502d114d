package journal

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
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

	// Nasty trials (escapes, broken UTF-8, every float format) agree or are
	// declined, whole and with one byte overwritten, dropped or doubled.
	accepted := 0
	for i := 0; i < 4000; i++ {
		tr := randomTrial(rng)
		if i%2 == 0 {
			tr = sphereTrial(rng, i) // damage to the plain form stays near the fast path
		}
		l := encode(tr)
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

// FuzzDecodeRecord puts arbitrary bytes to the same oracle.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range []string{
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeRecord(t, line)
	})
}
