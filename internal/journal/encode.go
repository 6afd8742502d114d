package journal

import (
	"fmt"
	"strconv"

	"rldecide/internal/core"
	"rldecide/internal/jsonbytes"
	"rldecide/internal/param"
)

// The arena record encoder: AppendRecord renders one trial as exactly the
// JSON line `json.Encoder.Encode(FromTrial(t))` used to produce, but into
// a caller-owned buffer with zero intermediate allocation — no Record, no
// params/values maps, no encoder state. Byte-compatibility is load-bearing,
// not cosmetic: shard re-homing and resume proofs compare journals
// byte-for-byte, so the encoder must reproduce encoding/json's exact
// string escaping (HTML-safe mode), float formatting, and map key order.
// The first two are internal/jsonbytes's, shared with the fleet's dispatch
// codec. TestAppendRecordMatchesJSON and FuzzAppendRecord pin all three
// against encoding/json itself.
//
// Key order falls out of the representation: param.Assignment and
// core.Values are name-sorted slices, and encoding/json sorts map keys
// with the same plain string comparison, so walking the slices in order
// reproduces the map encoding.

// AppendRecord appends t's journal line (including the trailing newline)
// to dst. The returned error mirrors encoding/json's refusal to encode
// NaN or infinite metric values; dst is unusable when err != nil.
func AppendRecord(dst []byte, t core.Trial) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"params":{`...)
	for i, b := range t.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonbytes.AppendString(dst, b.Name)
		dst = append(dst, ':')
		dst = appendJSONValueString(dst, b.Value)
	}
	dst = append(dst, '}')
	if len(t.Values) > 0 {
		dst = append(dst, `,"values":{`...)
		for i, mv := range t.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonbytes.AppendString(dst, mv.Name)
			dst = append(dst, ':')
			var err error
			if dst, err = jsonbytes.AppendFloat(dst, mv.V); err != nil {
				return dst, fmt.Errorf("journal: %w", err)
			}
		}
		dst = append(dst, '}')
	}
	if t.Pruned {
		dst = append(dst, `,"pruned":true`...)
	}
	if t.Err != nil {
		if msg := t.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = jsonbytes.AppendString(dst, msg)
		}
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, t.Seed, 10)
	if t.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = jsonbytes.AppendString(dst, t.Worker)
	}
	if t.WallMs != 0 {
		dst = append(dst, `,"wall_ms":`...)
		var err error
		if dst, err = jsonbytes.AppendFloat(dst, t.WallMs); err != nil {
			return dst, fmt.Errorf("journal: %w", err)
		}
	}
	dst = append(dst, '}', '\n')
	return dst, nil
}

// appendJSONValueString appends a param value rendered as Record.Params
// renders it (Value.String) and encoded as a JSON string. Int and float
// renderings are plain ASCII with nothing to escape, so they skip the
// escaper.
func appendJSONValueString(dst []byte, v param.Value) []byte {
	if v.Kind() == param.KindString {
		return jsonbytes.AppendString(dst, v.Str())
	}
	dst = append(dst, '"')
	dst = v.AppendText(dst)
	return append(dst, '"')
}
