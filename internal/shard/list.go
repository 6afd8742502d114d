package shard

import (
	"encoding/json"
	"sort"
	"strings"

	"rldecide/internal/daemon"
	"rldecide/internal/jsonbytes"
)

// The list splitter reads a backend's GET /studies body the way
// journal.decodeRecord reads a journal line: it walks a jsonbytes.Cursor
// over the one byte form the serve daemon writes (daemon.WriteStudyList,
// which is daemon.WriteJSON's encoding of {"studies": [...]}) and either
// takes the whole body or declines the whole body to decodeList. An
// element it takes is a flat object in the encoder's own layout — keys of
// [a-z0-9_], values that json.Marshal of a json.RawMessage copies byte for
// byte, a plain ASCII "id" — so compacting, HTML-escaping and re-indenting
// it, which is what the router used to do to every element of every
// listing, would give back the same bytes: it passes through untouched.
// A body holding any element in another form (nested values, other
// spacing, an escaped or repeated "id") is read by encoding/json, which
// stays the authority on what a valid body is and what its elements' IDs
// are; accepting never changes a byte of the router's answer
// (TestRouterListMatchesWriteJSON, FuzzSplitList).

// listEntry is one study summary on its way through the router.
type listEntry struct {
	id      string // the study ID
	raw     string // the summary in daemon.StudyListElem form
	backend string
}

// summaryProbe is the slice of a backend study summary the directory
// needs.
type summaryProbe struct {
	ID     string `json:"id"`
	Daemon string `json:"daemon"`
}

// decodeList is the encoding/json reading of a whole list body: each
// element's ID as json.Unmarshal finds it (elements without one are not
// listed) and the bytes daemon.WriteJSON would write for it inside the
// list.
func decodeList(body, backend string, out []listEntry) ([]listEntry, error) {
	var payload struct {
		Studies []json.RawMessage `json:"studies"`
	}
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&payload); err != nil {
		return out, err
	}
	for _, raw := range payload.Studies {
		var p summaryProbe
		if err := json.Unmarshal(raw, &p); err != nil || p.ID == "" {
			continue
		}
		if enc, err := daemon.StudyListElem(raw); err == nil {
			out = append(out, listEntry{id: p.ID, raw: enc, backend: backend})
		}
	}
	return out, nil
}

// listMemo is what a backend's last list body leaves for its next one: the
// body, when the splitter took it whole, and the byte span of each of its
// elements. The splitter walks left to right and its decision on an
// element depends only on the bytes up to that element's end, so every
// element that ends inside the part of the next body equal to this one is
// split as it was, and the walk resumes after the last of them
// (FuzzSplitListResume).
type listMemo struct {
	body  string
	spans []elemSpan
}

// elemSpan locates one element and its "id" in a list body.
type elemSpan struct {
	start, end  int // the element
	idAt, idEnd int // its "id" string, without the quotes
}

// splitList appends body's elements to out in one pass over the part of
// body that differs from memo's, or reports false (with out as it was)
// when the body is not in the serve daemon's form. Entries are substrings
// of body. memo is then body's: its split if taken, empty if declined.
func splitList(body, backend string, out []listEntry, memo *listMemo) ([]listEntry, bool) {
	spans := memo.settled(body)
	memo.body, memo.spans = "", nil // the old body is not kept past here
	if body == daemon.StudyListEmpty {
		memo.body, memo.spans = body, spans[:0]
		return out, true
	}
	entries := out
	for _, sp := range spans {
		entries = append(entries, listEntry{id: body[sp.idAt:sp.idEnd], raw: body[sp.start:sp.end], backend: backend})
	}
	var d jsonbytes.Cursor
	more := true
	if n := len(spans); n > 0 {
		d = jsonbytes.NewCursorAt(body, spans[n-1].end)
		more = d.Accept(",")
	} else {
		d = jsonbytes.NewCursor(body)
		d.Expect(daemon.StudyListOpen)
	}
	for more {
		d.Expect(daemon.StudyListSep)
		start := d.Pos()
		id, at := element(&d)
		entries = append(entries, listEntry{id: id, raw: body[start:d.Pos()], backend: backend})
		spans = append(spans, elemSpan{start: start, end: d.Pos(), idAt: at, idEnd: at + len(id)})
		more = d.Accept(",")
	}
	// A json.Decoder would not look past the closing brace; whatever else
	// a body has there, encoding/json gets to say.
	d.Expect(daemon.StudyListClose)
	if !d.Done() {
		return out, false
	}
	memo.body, memo.spans = body, spans
	return entries, true
}

// settled returns the spans of memo's elements that end inside the common
// prefix of memo's body and body, which are body's own first elements.
// They share memo's array.
func (memo *listMemo) settled(body string) []elemSpan {
	p := commonPrefix(memo.body, body)
	n := sort.Search(len(memo.spans), func(i int) bool { return memo.spans[i].end > p })
	return memo.spans[:n]
}

// commonPrefix returns the length of the longest common prefix of a and b,
// comparing a block at a time while the blocks agree.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for block := 4096; block >= 1; block /= 16 {
		for i+block <= n && a[i:i+block] == b[i:i+block] {
			i += block
		}
	}
	return i
}

// element consumes one summary in the encoder's own layout and returns
// its "id" and where that starts in the body. Because keys are lower-case
// ASCII, "id" and "daemon" are the only ones json.Unmarshal would match to
// summaryProbe's fields, and both must hold what it would accept there: a
// string. A repeated "id" would be last-one-wins in json.Unmarshal.
func element(d *jsonbytes.Cursor) (id string, at int) {
	d.Expect("{")
	for {
		d.Expect("\n      ")
		key := d.Str()
		d.Expect(": ")
		switch {
		case !isKey(key):
			d.Decline()
		case key == "id":
			if id != "" {
				d.Decline()
			}
			at = d.Pos() + len(`"`)
			if id = d.Str(); strings.ContainsFunc(id, htmlOrNonASCII) {
				d.Decline()
			}
		case key == "daemon":
			if !strings.HasPrefix(d.Scalar(), `"`) {
				d.Decline()
			}
		default:
			d.Scalar()
		}
		if !d.Accept(",") {
			break
		}
	}
	d.Expect("\n    }")
	if id == "" {
		d.Decline()
	}
	return id, at
}

// isKey reports whether k is one or more of [a-z0-9_].
func isKey(k string) bool {
	for i := 0; i < len(k); i++ {
		if c := k[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return k != ""
}

// htmlOrNonASCII marks the runes a plain ID may not hold beside the
// control characters Str already declines: the ones the encoder escapes
// and everything past printable ASCII.
func htmlOrNonASCII(r rune) bool { return r >= 0x7f || r == '<' || r == '>' || r == '&' }
