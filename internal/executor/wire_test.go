package executor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"rldecide/internal/jsonbytes"
	"rldecide/internal/obs/span"
)

// nastyStrings are the corner cases of encoding/json's string encoder and
// of the cursor's plain-string rule: HTML-escaped punctuation, quotes and
// backslashes, control bytes, invalid UTF-8, the JS line separators,
// multi-byte runes and a literal replacement character.
var nastyStrings = []string{
	"", "plain", "s0001", "alpha/w1", "x0",
	"<script>&amp;</script>",
	`quote " backslash \ slash /`,
	"ctrl\x00\x01\x1f\x7f",
	"tab\tnewline\ncr\rbs\bff\f",
	"bad\xff\xfeutf8",
	"truncated\xe2\x82",
	"line\u2028sep\u2029end",
	"日本語κόσμε",
	"literal � rune",
}

// nastyFloats cross the 'f'/'e' format boundaries of encoding/json's float
// encoder, with negative zero, subnormals and the exponent-trim path.
var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.25,
	1e-6, 9.999999e-7, 1e-7, 5e-324,
	1e21, 9.99e20, 1.2345e22, -3e300, math.MaxFloat64,
	math.Pi, 1.0 / 3.0, -123456.789, 46.5,
}

func nasty(rng *rand.Rand) string { return nastyStrings[rng.IntN(len(nastyStrings))] }

func randomRequest(rng *rand.Rand) TrialRequest {
	req := TrialRequest{StudyID: nasty(rng), TrialID: int(rng.Int64()) - int(rng.Int64()), Seed: rng.Uint64()}
	switch rng.IntN(4) {
	case 0:
		req.Spec = json.RawMessage(` {"name": "<b>&</b>",` + "\n\t" + "\"budget\": 4, \"x\": \"\u2028\"} ")
	case 1:
		req.SpecHash = SpecHashOf([]byte(nasty(rng)))
	case 2:
		req.SpecHash = nasty(rng)
	}
	if rng.IntN(5) > 0 {
		req.Params = map[string]string{}
		for i, n := 0, rng.IntN(5); i < n; i++ {
			req.Params[fmt.Sprintf("%s%d", nasty(rng), i)] = nasty(rng)
		}
	}
	return req
}

func randomResult(rng *rand.Rand) TrialResult {
	res := TrialResult{StudyID: nasty(rng), TrialID: int(rng.Int64()) - int(rng.Int64())}
	if rng.IntN(4) > 0 {
		res.Values = map[string]float64{}
		for i, n := 0, rng.IntN(4); i < n; i++ {
			res.Values[fmt.Sprintf("%s%d", nasty(rng), i)] = nastyFloats[rng.IntN(len(nastyFloats))] * (rng.Float64()*2 - 1)
		}
	}
	if rng.IntN(3) == 0 {
		res.Error = nasty(rng)
	}
	if rng.IntN(2) == 0 {
		res.Worker = nasty(rng)
	}
	if rng.IntN(2) == 0 {
		res.WallMs = nastyFloats[rng.IntN(len(nastyFloats))]
	}
	if rng.IntN(5) == 0 {
		res.Spans = []span.Span{{Trace: nasty(rng), ID: "a1", Name: "run", Trial: res.TrialID, StartMs: 0.5, DurMs: 1e-7, Err: nasty(rng)}}
	}
	return res
}

// checkRequestWire is the request encoder's whole contract on one message:
// appendTrialRequest writes exactly the bytes json.Marshal writes, or
// refuses exactly when it refuses. It returns the bytes.
func checkRequestWire(t *testing.T, req TrialRequest) []byte {
	t.Helper()
	want, jsonErr := json.Marshal(req)
	got, err := appendTrialRequest(nil, req)
	if (err != nil) != (jsonErr != nil) {
		t.Fatalf("appendTrialRequest err %v, json.Marshal err %v\nrequest: %+v", err, jsonErr, req)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("byte mismatch\n json: %q\n wire: %q", want, got)
	}
	return got
}

// checkResultWire is the same contract for appendTrialResult against
// json.Encoder.Encode, newline included.
func checkResultWire(t *testing.T, res TrialResult) []byte {
	t.Helper()
	var want bytes.Buffer
	jsonErr := json.NewEncoder(&want).Encode(res)
	got, err := appendTrialResult(nil, res)
	if (err != nil) != (jsonErr != nil) {
		t.Fatalf("appendTrialResult err %v, Encode err %v\nresult: %+v", err, jsonErr, res)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("byte mismatch\n json: %q\n wire: %q", want.Bytes(), got)
	}
	return got
}

// checkDecode holds a fast decoder to the handler's json.Decoder on one
// body and reports whether the body was accepted.
func checkDecode[T any](t *testing.T, body []byte, fast func([]byte, *T) bool) bool {
	t.Helper()
	accepted, err := jsonbytes.Differential(body, fast, func(b []byte, v *T) error {
		return json.NewDecoder(bytes.NewReader(b)).Decode(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	return accepted
}

func checkDecodeTrialRequest(t *testing.T, body []byte) bool {
	t.Helper()
	return checkDecode(t, body, decodeTrialRequest)
}

func checkDecodeTrialResult(t *testing.T, body []byte) bool {
	t.Helper()
	return checkDecode(t, body, decodeTrialResult)
}

func TestTrialRequestWireMatchesJSON(t *testing.T) {
	// Hash-only requests with plain strings are the decoder's to take.
	for _, req := range []TrialRequest{
		{},
		{StudyID: "s0001", TrialID: 7, SpecHash: "abc", Params: map[string]string{}, Seed: 1<<64 - 1},
		{StudyID: "s0001", TrialID: -3, Params: map[string]string{"x1": "-2.718", "x0": "0.3142"}, Seed: 42},
		{StudyID: "κόσμε", TrialID: math.MinInt, SpecHash: SpecHashOf(nil), Params: map[string]string{"fw": "a b/c"}},
	} {
		if body := checkRequestWire(t, req); !checkDecodeTrialRequest(t, body) {
			t.Fatalf("declined a request of the encoder's plain form: %q", body)
		}
	}
	for _, req := range []TrialRequest{
		{StudyID: `<&>"\`, TrialID: 1, Params: map[string]string{"\u2028": "\xff", "b": "\x01"}},
		{StudyID: "s", Spec: json.RawMessage(`{"objective": "sphere", "name": "<b>a & b</b>"}`), SpecHash: "h"},
	} {
		if body := checkRequestWire(t, req); checkDecodeTrialRequest(t, body) {
			t.Fatalf("accepted a request with a spec or an escaped string: %q", body)
		}
	}
	// A spec encoding/json cannot compact is refused by both.
	if _, err := appendTrialRequest(nil, TrialRequest{Spec: json.RawMessage(`{nope`)}); err == nil {
		t.Fatal("appendTrialRequest accepted an invalid spec")
	}

	rng := rand.New(rand.NewPCG(25, 0x717e))
	accepted := 0
	for i := 0; i < 10000; i++ {
		body := checkRequestWire(t, randomRequest(rng))
		if checkDecodeTrialRequest(t, body) {
			accepted++
		}
		for _, damaged := range jsonbytes.Damaged(rng, body) {
			checkDecodeTrialRequest(t, damaged)
		}
	}
	if accepted < 1000 {
		t.Fatalf("fast path accepted %d of 10000 generated requests", accepted)
	}
}

func TestTrialResultWireMatchesJSON(t *testing.T) {
	// Results without spans, with plain strings, are the decoder's to take.
	for _, res := range []TrialResult{
		{},
		{StudyID: "s0001", TrialID: 7, Values: map[string]float64{}, Worker: "w1"},
		{StudyID: "s0001", TrialID: -7, Values: map[string]float64{"f": 1e21, "cost": 1e-6, "g": 9.999999e-7, "z": math.Copysign(0, -1)}, WallMs: 0.0123},
		{StudyID: "s", Error: "diverged: loss is nan", Worker: "κόσμε/w2", WallMs: math.Copysign(0, -1)},
	} {
		if body := checkResultWire(t, res); !checkDecodeTrialResult(t, body) {
			t.Fatalf("declined a result of the encoder's plain form: %q", body)
		}
	}
	for _, res := range []TrialResult{
		{StudyID: "s", Error: "diverged <loss> & \"nan\"\n", Worker: "w1"},
		{StudyID: "s", Spans: []span.Span{{Trace: "t", ID: "a", Name: "run <&>", DurMs: 1.5}}},
	} {
		if body := checkResultWire(t, res); checkDecodeTrialResult(t, body) {
			t.Fatalf("accepted a result with spans or an escaped string: %q", body)
		}
	}
	// Non-finite values are refused by both.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkResultWire(t, TrialResult{Values: map[string]float64{"m": bad}})
		checkResultWire(t, TrialResult{WallMs: bad})
	}

	rng := rand.New(rand.NewPCG(25, 0x7e5))
	accepted := 0
	for i := 0; i < 10000; i++ {
		body := checkResultWire(t, randomResult(rng))
		if checkDecodeTrialResult(t, body) {
			accepted++
		}
		for _, damaged := range jsonbytes.Damaged(rng, body) {
			checkDecodeTrialResult(t, damaged)
		}
	}
	if accepted < 1000 {
		t.Fatalf("fast path accepted %d of 10000 generated results", accepted)
	}
}

// FuzzDecodeTrialRequest puts arbitrary bytes to the request decoder's
// oracle.
func FuzzDecodeTrialRequest(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"study_id":"s0001","trial_id":3,"spec_hash":"ab12","params":{"x0":"0.3142","x1":"-2.718"},"seed":42}`,
		`{"study_id":"s0001","trial_id":3,"spec":{"a":1},"spec_hash":"ab12","params":{},"seed":42}`,
		`{"study_id":"s","trial_id":-0,"params":null,"seed":18446744073709551615}`,
		`{"study_id":"s","trial_id":1,"params":{"a":"1","a":"2"},"seed":1}`,
		`{"study_id":"s","trial_id":1.0,"params":{},"seed":-0}`,
		`{"study_id":"s","trial_id":9223372036854775808,"params":{},"seed":18446744073709551616}`,
		`{"study_id":"<","trial_id":1,"params":{},"seed":1}`,
		`{"seed":1,"params":{},"trial_id":1,"study_id":"s"}`,
		` {"study_id":"s","trial_id":1,"params":{},"seed":1}`,
		`{"study_id":"s","trial_id":1,"params":{},"seed":1}{"junk":`,
		`{"study_id":"s","trial_id":1,"params":{"k":"` + "\xff" + `"},"seed":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeTrialRequest(t, body)
	})
}

// FuzzDecodeTrialResult puts arbitrary bytes to the result decoder's
// oracle.
func FuzzDecodeTrialResult(f *testing.F) {
	for _, seed := range []string{
		``,
		"{}\n",
		`{"study_id":"s0001","trial_id":3,"values":{"cost":4.444,"f":11.826856},"worker":"alpha/w1","wall_ms":0.004321}` + "\n",
		`{"study_id":"s0001","trial_id":3,"values":{"f":1e+21,"g":1e-7},"error":"boom","worker":"w1"}` + "\n",
		`{"study_id":"s0001","trial_id":3}`,
		`{"study_id":"s","trial_id":1,"values":{"m":1e999},"worker":"w"}` + "\n",
		`{"study_id":"s","trial_id":1,"values":{"m":-.5,"n":+1,"o":0x1p-2}}` + "\n",
		`{"study_id":"s","trial_id":1,"error":"","worker":"","wall_ms":0}` + "\n",
		`{"study_id":"s","trial_id":1,"spans":[{"trace":"t","span":"a","name":"run","start_ms":0,"dur_ms":1}]}` + "\n",
		`{"study_id":"s","trial_id":1}` + "\n\n",
		`{"study_id":"s","trial_id":1}` + "\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeTrialResult(t, body)
	})
}
