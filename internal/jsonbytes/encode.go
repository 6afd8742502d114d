// Package jsonbytes holds the primitives of the repository's byte-form
// JSON readers and writers: a string and a float encoder that write
// exactly the bytes encoding/json writes, and a Cursor that reads back one
// message in its writer's own form and declines everything else. Three
// readers walk a Cursor — the journal's record lines (internal/journal),
// the fleet's dispatch bodies (internal/executor) and the router's study
// list (internal/shard) — and each takes a message whole or declines it
// whole to encoding/json. Differential is the one contract all of them
// are tested against: encoding/json stays the authority, and a reader
// only ever answers for messages on which the two agree.
package jsonbytes

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendFloat appends f exactly as encoding/json's floatEncoder does:
// shortest representation, 'f' format unless the magnitude calls for
// exponent form, with the exponent's leading zero trimmed ("e-09"→"e-9").
// Like encoding/json it refuses NaN and ±Inf; the error reads as
// encoding/json's without its package prefix, for the caller to add its
// own. dst is unusable when err != nil.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
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

// AppendString appends s as a JSON string with encoding/json's default
// (HTML-escaping) rules: control characters, quote, backslash, '<', '>',
// '&' and U+2028/U+2029 are escaped; invalid UTF-8 becomes U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if htmlSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
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

// htmlSafe marks the ASCII bytes encoding/json's HTML-escaping string
// encoder copies as they are; every byte at or above utf8.RuneSelf is
// false, so a rune's first byte leaves the fast loop.
var htmlSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()
