package jsonbytes

import (
	"strconv"
	"unicode/utf8"
)

// Cursor walks one message in a codec's own byte form: its owner spells
// out the literals the encoder writes, in order, and reads the values
// between them. The first thing that is not in that form marks the
// message declined, after which every method is a no-op returning the
// zero value, so the owner checks Done once at the end and hands a
// declined message to encoding/json. What a Cursor accepts it returns
// exactly as encoding/json would: plain strings only, JSON-grammar
// numbers converted with the strconv calls encoding/json makes, and for
// Scalar the text encoding/json would copy through unchanged.
type Cursor struct {
	s   string
	i   int
	bad bool
}

// NewCursor returns a cursor at the start of s. Every string the cursor
// returns is a substring of s.
func NewCursor(s string) Cursor { return Cursor{s: s} }

// NewCursorAt returns a cursor that has consumed the first i bytes of s,
// for an owner that knows how a walk of them from the start would end.
func NewCursorAt(s string, i int) Cursor { return Cursor{s: s, i: i} }

// Done reports whether nothing was declined and all of the message was
// consumed.
func (d *Cursor) Done() bool { return !d.bad && d.i == len(d.s) }

// Accept consumes lit if the rest of the message starts with it.
func (d *Cursor) Accept(lit string) bool {
	if d.bad || len(d.s)-d.i < len(lit) || d.s[d.i:d.i+len(lit)] != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// Expect is Accept for what must come next.
func (d *Cursor) Expect(lit string) {
	if !d.Accept(lit) {
		d.bad = true
	}
}

// Pos returns how many bytes of the message have been consumed.
func (d *Cursor) Pos() int { return d.i }

// Decline marks the message declined, for a rule the owner checks itself.
func (d *Cursor) Decline() { d.bad = true }

// fail declines the message.
func (d *Cursor) fail() string {
	d.bad = true
	return ""
}

// Members consumes the rest of an object whose opening brace is behind the
// cursor, calling value to consume what follows each `"key":`. A repeated
// key reaches value again, as it reaches encoding/json's map again.
func (d *Cursor) Members(value func(key string)) {
	if d.Accept("}") {
		return
	}
	for !d.bad {
		k := d.Str()
		d.Expect(":")
		value(k)
		if !d.Accept(",") {
			d.Expect("}")
			return
		}
	}
}

// Str consumes a quoted string holding no escape, no control character and
// only valid UTF-8 — the strings encoding/json decodes byte for byte.
func (d *Cursor) Str() string {
	if !d.Accept(`"`) {
		return d.fail()
	}
	s, i, ascii := d.s, d.i, true
	for ; i < len(s); i++ {
		c := s[i]
		if plainASCII[c] {
			continue
		}
		switch {
		case c == '"':
			out := s[d.i:i]
			d.i = i + 1
			if !ascii && !utf8.ValidString(out) {
				return d.fail() // encoding/json substitutes U+FFFD
			}
			return out
		case c >= utf8.RuneSelf:
			ascii = false
		default: // a control byte or an escape
			return d.fail()
		}
	}
	return d.fail()
}

// Scalar consumes a string, number, true, false or null that
// json.Marshal(json.RawMessage(x)) copies byte for byte, and returns its
// text. A string may hold valid escapes, but no control byte, no raw <, >
// or & and no U+2028 or U+2029, all of which that compact-and-escape pass
// rewrites.
func (d *Cursor) Scalar() string {
	if d.bad || d.i == len(d.s) {
		return d.fail()
	}
	s, i := d.s, d.i
	switch s[i] {
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if d.Accept(lit) {
				return lit
			}
		}
		return d.fail()
	case '"':
	default:
		return d.number()
	}
	for i++; i < len(s); i++ {
		c := s[i]
		if htmlSafe[c] {
			continue
		}
		switch {
		case c == '"':
			text := s[d.i : i+1]
			d.i = i + 1
			return text
		case c == '\\':
			if i++; i == len(s) {
				return d.fail()
			}
			switch s[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(s)-i <= 4 {
					return d.fail()
				}
				if _, err := strconv.ParseUint(s[i+1:i+5], 16, 16); err != nil {
					return d.fail()
				}
				i += 4
			default:
				return d.fail()
			}
		case c < utf8.RuneSelf, // a control byte, <, > or &
			c == 0xE2 && len(s)-i > 2 && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8:
			return d.fail()
		}
	}
	return d.fail()
}

// plainASCII marks the ASCII bytes a plain string holds as themselves: all
// but the control bytes, the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// number consumes a number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv alone would also
// take "+1", ".5", "0x1p-2", "1_0" and "Inf", none of which is JSON.
func (d *Cursor) number() string {
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

// Int, Uint and Float convert with the strconv calls encoding/json makes
// for fields of these types, and decline where it reports an error (a
// fraction, exponent or sign the field's type does not take, a value out of
// range).

// Int consumes an int.
func (d *Cursor) Int() int {
	n, err := strconv.ParseInt(d.number(), 10, strconv.IntSize)
	if err != nil {
		d.bad = true
	}
	return int(n)
}

// Uint consumes a uint64.
func (d *Cursor) Uint() uint64 {
	n, err := strconv.ParseUint(d.number(), 10, 64)
	if err != nil {
		d.bad = true
	}
	return n
}

// Float consumes a float64.
func (d *Cursor) Float() float64 {
	f, err := strconv.ParseFloat(d.number(), 64)
	if err != nil {
		d.bad = true
	}
	return f
}
