package jsonbytes

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// whole runs one Cursor reader over all of an input, declining what it
// does not consume.
func whole[T any](read func(*Cursor) T) func([]byte, *T) bool {
	return func(in []byte, v *T) bool {
		d := NewCursor(string(in))
		x := read(&d)
		if !d.Done() {
			return false
		}
		*v = x
		return true
	}
}

func unmarshal[T any](in []byte, v *T) error { return json.Unmarshal(in, v) }

// marshalRaw is what encoding/json writes for in held in a
// json.RawMessage, the text Scalar must return unchanged.
func marshalRaw(in []byte, v *string) error {
	out, err := json.Marshal(json.RawMessage(in))
	*v = string(out)
	return err
}

// readers holds each reader to its reference through the oracle.
var readers = map[string]func([]byte) (bool, error){
	"Str":   func(in []byte) (bool, error) { return Differential(in, whole((*Cursor).Str), unmarshal[string]) },
	"Int":   func(in []byte) (bool, error) { return Differential(in, whole((*Cursor).Int), unmarshal[int]) },
	"Uint":  func(in []byte) (bool, error) { return Differential(in, whole((*Cursor).Uint), unmarshal[uint64]) },
	"Float": func(in []byte) (bool, error) { return Differential(in, whole((*Cursor).Float), unmarshal[float64]) },
	"Members": func(in []byte) (bool, error) {
		return Differential(in, whole(func(d *Cursor) map[string]string {
			d.Expect("{")
			m := map[string]string{}
			d.Members(func(k string) { m[k] = d.Str() })
			return m
		}), unmarshal[map[string]string])
	},
	"Scalar": func(in []byte) (bool, error) { return Differential(in, whole((*Cursor).Scalar), marshalRaw) },
}

// readerCases lists, for each input, the readers that must take it; every
// other reader must decline it.
var readerCases = []struct{ in, take string }{
	{``, ""},
	{`""`, "Str Scalar"},
	{`"plain"`, "Str Scalar"},
	{`"naïve 試験"`, "Str Scalar"},
	{`"a<b>&c"`, "Str"},                 // the encoder escapes all three
	{"\"a\u2028b\u2029\"", "Str"},       // and the JS line separators
	{"\"a\x7fb\"", "Str Scalar"},        // DEL is neither escaped nor a control byte
	{"\"bad\xff\"", "Scalar"},           // encoding/json decodes U+FFFD but copies the byte
	{"\"tab\t\"", ""},                   // a raw control byte is not JSON
	{`"q\"b\\s\/\b\f\n\r\t"`, "Scalar"}, // Str takes no escape
	{`"\u00e9\u2028\uD800"`, "Scalar"},  // escaped, they stay as written
	{`"\x"`, ""}, {`"\u12"`, ""}, {`"\u12G4"`, ""}, {`"open`, ""}, {`"\`, ""},
	{`0`, "Int Uint Float Scalar"},
	{`-0`, "Int Float Scalar"},
	{`-7`, "Int Float Scalar"},
	{`1.0`, "Float Scalar"},
	{`2.5e-7`, "Float Scalar"},
	{`1E+2`, "Float Scalar"},
	{`9223372036854775808`, "Uint Float Scalar"},
	{`18446744073709551616`, "Float Scalar"},
	{`1e999`, "Scalar"},
	{`01`, ""}, {`+1`, ""}, {`.5`, ""}, {`1.`, ""}, {`1e`, ""}, {`-`, ""}, {`1_0`, ""}, {`0x1p-2`, ""}, {`Inf`, ""}, {`NaN`, ""},
	{`true`, "Scalar"}, {`false`, "Scalar"}, {`null`, "Scalar"}, {`nul`, ""}, {`truth`, ""},
	{`{}`, "Members"},
	{`{"b":"2","a":"1"}`, "Members"},
	{`{"a":"1","a":"2"}`, "Members"}, // the last one wins in both
	{`{"a":1}`, ""}, {`{"a":"1",}`, ""}, {`{ "a":"1"}`, ""}, {`{"a":"1"`, ""}, {`["a"]`, ""},
}

func TestReadersMatchJSON(t *testing.T) {
	for _, tc := range readerCases {
		take := strings.Fields(tc.take)
		for name, check := range readers {
			accepted, err := check([]byte(tc.in))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := slices.Contains(take, name); accepted != want {
				t.Errorf("%s(%q) accepted=%v, want %v (takers %v)", name, tc.in, accepted, want, take)
			}
		}
	}
}

// The corner cases of encoding/json's string and float encoders:
// HTML-escaped punctuation, quotes and backslashes, control bytes, invalid
// UTF-8, the JS line separators, multi-byte runes and a literal
// replacement character; the 'f'/'e' format boundaries, negative zero,
// subnormals and the exponent-trim path.
var (
	nastyStrings = []string{
		"", "plain", "<script>&amp;</script>", `quote " backslash \ slash /`,
		"ctrl\x00\x01\x1f\x7f", "tab\tnewline\ncr\rbs\bff\f", "bad\xff\xfeutf8", "truncated\xe2\x82",
		"line\u2028sep\u2029end", "日本語κόσμε", "literal � rune", "mix<& \xffあ\"\\\x02",
	}
	nastyFloats = []float64{
		0, math.Copysign(0, -1), 1, 0.5, 1e-6, 9.999999e-7, 1e-7, 5e-324, 1e21, 9.99e20, 1.2345e22,
		3e300, math.MaxFloat64, math.Pi, 1.0 / 3.0, 123456.789, 201000, 46.5,
	}
)

func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range nastyStrings {
		if want, _ := json.Marshal(s); !bytes.Equal(AppendString(nil, s), want) {
			t.Errorf("AppendString(%q) = %q, want %q", s, AppendString(nil, s), want)
		}
	}
	for _, f := range append(nastyFloats, math.NaN(), math.Inf(1)) {
		for _, f := range []float64{f, -f} {
			want, jsonErr := json.Marshal(f)
			got, err := AppendFloat(nil, f)
			if (err != nil) != (jsonErr != nil) || err == nil && !bytes.Equal(got, want) {
				t.Errorf("AppendFloat(%v) = %q, %v; json.Marshal: %q, %v", f, got, err, want, jsonErr)
			}
		}
	}
}

// FuzzScalar: a text Scalar accepts is a JSON scalar that encoding/json's
// compact-and-escape pass copies byte for byte.
func FuzzScalar(f *testing.F) {
	for _, tc := range readerCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d := NewCursor(in)
		text := d.Scalar()
		if !d.Done() {
			return
		}
		if !json.Valid([]byte(text)) || text[0] == '{' || text[0] == '[' {
			t.Fatalf("accepted %q, not a JSON scalar", text)
		}
		if out, err := json.Marshal(json.RawMessage(text)); err != nil || string(out) != text {
			t.Fatalf("accepted %q, which encoding/json writes as %q (%v)", text, out, err)
		}
	})
}
