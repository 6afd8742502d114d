package shard

import (
	"bytes"
	"encoding/json"

	"rldecide/internal/daemon"
)

// The list splitter reads a backend's GET /studies body the way
// journal.decodeRecord reads a journal line: it recognises the one byte
// form the serve daemon writes (daemon.WriteStudyList, which is
// daemon.WriteJSON's encoding of {"studies": [...]}) and declines the rest
// to encoding/json. An element it accepts is a flat object in the
// encoder's own layout — keys of [a-z0-9_], integer, true/false/null and
// string values holding no byte the encoder would have escaped, a plain
// ASCII "id" — so compacting, HTML-escaping and re-indenting it, which is
// what the router used to do to every element of every listing, would give
// back the same bytes: it passes through untouched. An element in any
// other form (nested values, other spacing, an escaped or repeated "id")
// is handed to probeElement, and a body whose envelope is not the
// encoder's to decodeList; encoding/json stays the authority on what a
// valid body is and what its elements' IDs are, and accepting never
// changes a byte of the router's answer (TestRouterListMatchesWriteJSON,
// FuzzSplitList).

// listEntry is one study summary on its way through the router.
type listEntry struct {
	id      []byte // the study ID
	raw     []byte // the summary in daemon.StudyListElem form
	backend string
}

// summaryProbe is the slice of a backend study summary the directory
// needs.
type summaryProbe struct {
	ID     string `json:"id"`
	Daemon string `json:"daemon"`
}

// probeElement is the encoding/json reading of one list element: its ID
// as json.Unmarshal finds it (elements without one are not listed) and the
// bytes daemon.WriteJSON would write for it inside the list.
func probeElement(raw json.RawMessage, backend string) (listEntry, bool) {
	var p summaryProbe
	if err := json.Unmarshal(raw, &p); err != nil || p.ID == "" {
		return listEntry{}, false
	}
	enc, err := daemon.StudyListElem(raw)
	if err != nil {
		return listEntry{}, false
	}
	return listEntry{id: []byte(p.ID), raw: enc, backend: backend}, true
}

// decodeList is the encoding/json reading of a whole list body.
func decodeList(body []byte, backend string, out []listEntry) ([]listEntry, error) {
	var payload struct {
		Studies []json.RawMessage `json:"studies"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&payload); err != nil {
		return out, err
	}
	for _, raw := range payload.Studies {
		if e, ok := probeElement(raw, backend); ok {
			out = append(out, e)
		}
	}
	return out, nil
}

// splitList appends body's elements to out in one pass over body, or
// reports false (with out as it was) when the body is not in the serve
// daemon's form. Entries alias body.
func splitList(body []byte, backend string, out []listEntry) ([]listEntry, bool) {
	if string(body) == daemon.StudyListEmpty {
		return out, true
	}
	c := listCursor{b: body}
	if !c.accept(daemon.StudyListOpen) {
		return out, false
	}
	entries := out
	for {
		if !c.accept(daemon.StudyListSep) {
			return out, false
		}
		start := c.i
		if id, ok := c.element(); ok {
			entries = append(entries, listEntry{id: id, raw: body[start:c.i], backend: backend})
		} else {
			c.i = start
			raw, ok := c.jsonValue()
			if !ok {
				return out, false
			}
			if e, ok := probeElement(raw, backend); ok {
				entries = append(entries, e)
			}
		}
		if c.accept(",") {
			continue
		}
		// A json.Decoder would not look past the closing brace; whatever
		// else a body has there, encoding/json gets to say.
		if c.accept(daemon.StudyListClose) && c.i == len(body) {
			return entries, true
		}
		return out, false
	}
}

// listCursor walks one list body.
type listCursor struct {
	b []byte
	i int
}

// accept consumes lit if the rest of the body starts with it.
func (c *listCursor) accept(lit string) bool {
	if len(c.b)-c.i < len(lit) || string(c.b[c.i:c.i+len(lit)]) != lit {
		return false
	}
	c.i += len(lit)
	return true
}

// jsonValue consumes one JSON value of any form, as encoding/json
// delimits and validates it.
func (c *listCursor) jsonValue() (json.RawMessage, bool) {
	dec := json.NewDecoder(bytes.NewReader(c.b[c.i:]))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false
	}
	c.i += int(dec.InputOffset())
	return raw, true
}

// element consumes one summary in the encoder's own layout and returns
// its "id". Because keys are lower-case ASCII, "id" and "daemon" are the
// only ones json.Unmarshal would match to summaryProbe's fields, and both
// must hold what it would accept there: a string.
func (c *listCursor) element() (id []byte, ok bool) {
	if !c.accept("{") {
		return nil, false
	}
	for {
		if !c.accept("\n      \"") {
			return nil, false
		}
		start := c.i
		for c.i < len(c.b) && isKeyByte(c.b[c.i]) {
			c.i++
		}
		key := c.b[start:c.i]
		if len(key) == 0 || !c.accept("\": ") {
			return nil, false
		}
		switch string(key) {
		case "id":
			// A repeated "id" would be last-one-wins in json.Unmarshal.
			if id != nil {
				return nil, false
			}
			if id, ok = c.str(true); !ok || len(id) == 0 {
				return nil, false
			}
		case "daemon":
			if _, ok := c.str(false); !ok {
				return nil, false
			}
		default:
			if !c.scalar() {
				return nil, false
			}
		}
		if c.accept(",") {
			continue
		}
		return id, id != nil && c.accept("\n    }")
	}
}

func isKeyByte(ch byte) bool {
	return 'a' <= ch && ch <= 'z' || '0' <= ch && ch <= '9' || ch == '_'
}

// scalar consumes a string, an integer, true, false or null.
func (c *listCursor) scalar() bool {
	if c.i == len(c.b) {
		return false
	}
	switch ch := c.b[c.i]; {
	case ch == '"':
		_, ok := c.str(false)
		return ok
	case ch == 't':
		return c.accept("true")
	case ch == 'f':
		return c.accept("false")
	case ch == 'n':
		return c.accept("null")
	}
	// -?(0|[1-9][0-9]*); what follows decides whether that was all of it.
	c.accept("-")
	if c.accept("0") {
		return true
	}
	start := c.i
	for c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9' {
		c.i++
	}
	return c.i > start
}

// str consumes a quoted string and returns what is between the quotes,
// provided the encoder's compact-and-escape pass would copy it byte for
// byte: valid escapes stay as written, but a raw <, >, & or U+2028/U+2029
// would be rewritten, and a control byte is not JSON. A plain string
// further has no escape and no byte outside printable ASCII, so its bytes
// are the Go string json.Unmarshal would return.
func (c *listCursor) str(plain bool) ([]byte, bool) {
	if !c.accept(`"`) {
		return nil, false
	}
	for start := c.i; c.i < len(c.b); {
		ch := c.b[c.i]
		c.i++
		switch {
		case ch == '"':
			return c.b[start : c.i-1], true
		case ch < 0x20 || ch == '<' || ch == '>' || ch == '&':
			return nil, false
		case ch >= 0x7f && plain:
			return nil, false
		case ch == 0xE2 && len(c.b)-c.i >= 2 && c.b[c.i] == 0x80 && c.b[c.i+1]&^1 == 0xA8:
			return nil, false
		case ch == '\\':
			if plain || !c.escape() {
				return nil, false
			}
		}
	}
	return nil, false
}

// escape consumes what may follow a backslash in a JSON string.
func (c *listCursor) escape() bool {
	if c.i == len(c.b) {
		return false
	}
	ch := c.b[c.i]
	c.i++
	switch ch {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	case 'u':
		if len(c.b)-c.i < 4 {
			return false
		}
		for _, h := range c.b[c.i : c.i+4] {
			if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
				return false
			}
		}
		c.i += 4
		return true
	}
	return false
}
