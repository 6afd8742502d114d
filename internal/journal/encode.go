package journal

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"rldecide/internal/core"
	"rldecide/internal/param"
)

// The arena record encoder: AppendRecord renders one trial as exactly the
// JSON line `json.Encoder.Encode(FromTrial(t))` used to produce, but into
// a caller-owned buffer with zero intermediate allocation — no Record, no
// params/values maps, no encoder state. Byte-compatibility is load-bearing,
// not cosmetic: shard re-homing and resume proofs compare journals
// byte-for-byte, so the encoder must reproduce encoding/json's exact
// string escaping (HTML-safe mode), float formatting, and map key order.
// TestAppendRecordMatchesJSON and FuzzAppendRecord pin all three against
// encoding/json itself.
//
// Key order falls out of the representation: param.Assignment and
// core.Values are name-sorted slices, and encoding/json sorts map keys
// with the same plain string comparison, so walking the slices in order
// reproduces the map encoding.

const hexDigits = "0123456789abcdef"

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
		dst = appendJSONString(dst, b.Name)
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
			dst = appendJSONString(dst, mv.Name)
			dst = append(dst, ':')
			var err error
			dst, err = appendJSONFloat(dst, mv.V)
			if err != nil {
				return dst, err
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
			dst = appendJSONString(dst, msg)
		}
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, t.Seed, 10)
	if t.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = appendJSONString(dst, t.Worker)
	}
	if t.WallMs != 0 {
		dst = append(dst, `,"wall_ms":`...)
		var err error
		dst, err = appendJSONFloat(dst, t.WallMs)
		if err != nil {
			return dst, err
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
		return appendJSONString(dst, v.Str())
	}
	dst = append(dst, '"')
	dst = v.AppendText(dst)
	return append(dst, '"')
}

// appendJSONFloat appends f exactly as encoding/json's floatEncoder does:
// shortest representation, 'f' format unless the magnitude calls for
// exponent form, with the exponent's leading zero trimmed ("e-09"→"e-9").
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("journal: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	//lint:ignore float-eq exact-zero test replicates encoding/json's floatEncoder branch
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString appends s as a JSON string with encoding/json's
// default (HTML-escaping) rules: control characters, quote, backslash,
// '<', '>', '&' and U+2028/U+2029 are escaped; invalid UTF-8 becomes
// U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe reports whether b needs no escaping under encoding/json's
// HTML-escaping string encoder.
func jsonSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}
