package journal

import (
	"strconv"
	"unicode/utf8"
)

// The record decoder is the inverse of AppendRecord and nothing more: it
// recognises the one byte form the writer emits — keys in the fixed order
// id, params, values?, pruned?, error?, seed, worker?, wall_ms?, no
// whitespace, JSON-grammar numbers, strings that needed no escaping — and
// declines every other line, which Read then hands to json.Unmarshal as it
// always did. encoding/json therefore stays the authority on what a valid,
// torn or corrupt line is; the fast path only ever answers for lines on
// which the two provably agree (TestDecodeRecordMatchesJSON,
// FuzzDecodeRecord), so declining is always safe and accepting never
// changes a result. A journal written by an older encoder, by hand, or
// with escaped strings simply reads at the old speed.

// decodeRecord decodes line into rec when line is in the writer's own
// form, and reports whether it did; rec is untouched otherwise. The line is
// copied once and every string of the Record is a substring of that copy.
func decodeRecord(line []byte, rec *Record) bool {
	d := cursor{s: string(line)}
	var r Record
	d.expect(`{"id":`)
	r.ID = d.int()
	d.expect(`,"params":{`)
	r.Params = map[string]string{}
	d.members(func(k string) { r.Params[k] = d.str() })
	if d.accept(`,"values":{`) {
		r.Values = map[string]float64{}
		d.members(func(k string) { r.Values[k] = d.float() })
	}
	// false, "" and 0 are never written (omitempty), so only true and a
	// present string or number are recognised; json.Unmarshal takes the rest.
	r.Pruned = d.accept(`,"pruned":true`)
	if d.accept(`,"error":`) {
		r.Error = d.str()
	}
	d.expect(`,"seed":`)
	r.Seed = d.uint()
	if d.accept(`,"worker":`) {
		r.Worker = d.str()
	}
	if d.accept(`,"wall_ms":`) {
		r.WallMs = d.float()
	}
	d.expect("}")
	if d.bad || d.i != len(d.s) {
		return false
	}
	*rec = r
	return true
}

// cursor walks one journal line. The first thing that is not in the
// writer's form sets bad, after which every method is a no-op returning
// the zero value, so decodeRecord checks once at the end.
type cursor struct {
	s   string
	i   int
	bad bool
}

// accept consumes lit if the rest of the line starts with it.
func (d *cursor) accept(lit string) bool {
	if d.bad || len(d.s)-d.i < len(lit) || d.s[d.i:d.i+len(lit)] != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// expect is accept for what must come next.
func (d *cursor) expect(lit string) {
	if !d.accept(lit) {
		d.bad = true
	}
}

// fail declines the line.
func (d *cursor) fail() string {
	d.bad = true
	return ""
}

// members consumes the rest of an object whose opening brace is behind the
// cursor, calling value to consume what follows each `"key":`. A repeated
// key reaches value again, as it reaches json.Unmarshal's map again.
func (d *cursor) members(value func(key string)) {
	if d.accept("}") {
		return
	}
	for !d.bad {
		k := d.str()
		d.expect(":")
		value(k)
		if !d.accept(",") {
			d.expect("}")
			return
		}
	}
}

// str consumes a quoted string holding no escape, no control character and
// only valid UTF-8 — the strings json.Unmarshal returns byte for byte.
func (d *cursor) str() string {
	if !d.accept(`"`) {
		return d.fail()
	}
	start, ascii := d.i, true
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			out := d.s[start:d.i]
			d.i++
			if !ascii && !utf8.ValidString(out) {
				return d.fail() // json.Unmarshal substitutes U+FFFD
			}
			return out
		case c < 0x20 || c == '\\':
			return d.fail()
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return d.fail()
}

// number consumes a number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv alone would also
// take "+1", ".5", "0x1p-2", "1_0" and "Inf", none of which is JSON.
func (d *cursor) number() string {
	if d.bad {
		return ""
	}
	s, i := d.s, d.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if i = digits(s, i); i < 0 {
		return d.fail()
	}
	if i < len(s) && s[i] == '.' {
		if i = digits(s, i+1); i < 0 {
			return d.fail()
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i = digits(s, i); i < 0 {
			return d.fail()
		}
	}
	text := s[d.i:i]
	d.i = i
	return text
}

// digits returns the end of the run of decimal digits starting at s[i], or
// -1 if there is none.
func digits(s string, i int) int {
	from := i
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if i == from {
		return -1
	}
	return i
}

// int, uint and float convert with the strconv calls encoding/json makes
// for fields of these types, and decline where it reports an error (a
// fraction, exponent or sign the field's type does not take, a value out of
// range).

func (d *cursor) int() int {
	n, err := strconv.ParseInt(d.number(), 10, strconv.IntSize)
	if err != nil {
		d.bad = true
	}
	return int(n)
}

func (d *cursor) uint() uint64 {
	n, err := strconv.ParseUint(d.number(), 10, 64)
	if err != nil {
		d.bad = true
	}
	return n
}

func (d *cursor) float() float64 {
	f, err := strconv.ParseFloat(d.number(), 64)
	if err != nil {
		d.bad = true
	}
	return f
}
