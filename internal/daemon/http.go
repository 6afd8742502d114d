package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
)

// APIError is the JSON error envelope every daemon API answers with.
type APIError struct {
	Error string `json:"error"`
}

// WriteJSON writes v as an indented JSON response with the given status:
// WriteBody of EncodeJSON(v).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	// A value encoding/json refuses answers status with an empty body, as
	// it did when the encoder wrote straight after the status line.
	body, _ := EncodeJSON(v)
	WriteBody(w, status, body)
}

// EncodeJSON is the body WriteJSON writes for v: indented by two spaces,
// HTML-escaped, ending in a newline. A value encoding/json refuses (a NaN,
// a channel) encodes to no bytes and the encoder's error. A caller that
// keeps a body to serve again keeps these bytes, so a kept body is
// WriteJSON's by construction.
func EncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// WriteBody answers status with a JSON document that is the concatenation
// of parts: an explicit Content-Length, one Write per part. The parts are
// only read, so they may be kept ones.
func WriteBody(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		// A gone client is the only way this write fails.
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}

// The study list — GET /studies on a serve daemon and on the router — is
// the one response whose size grows with everything a daemon has ever
// held, so both write it from element encodings they keep or pass through
// instead of handing WriteJSON a slice to reflect over and indent again.
// The body is byte for byte WriteJSON's for map[string]any{"studies":
// elems}; the constants are the pieces of that encoding around the
// elements, which the router's splitter (internal/shard) reads back.
const (
	StudyListOpen  = "{\n  \"studies\": ["
	StudyListSep   = "\n    " // after "[" and after each element's ","
	StudyListClose = "\n  ]\n}\n"
	// An empty array is not broken over lines.
	StudyListEmpty = StudyListOpen + "]\n}\n"
)

// StudyListElem encodes v as it stands inside that body: indented two
// levels deep, HTML-escaped, no trailing newline.
func StudyListElem(v any) (string, error) {
	b, err := json.MarshalIndent(v, "    ", "  ")
	return string(b), err
}

// WriteStudyList answers 200 with the study list made of elems, each one a
// StudyListElem encoding, assembled in one buffer of the final size.
func WriteStudyList(w http.ResponseWriter, elems []string) {
	var body []byte
	if len(elems) == 0 {
		body = []byte(StudyListEmpty)
	} else {
		size := len(StudyListOpen) + len(StudyListClose)
		for _, e := range elems {
			size += len(StudyListSep) + len(e) + len(",")
		}
		body = append(make([]byte, 0, size), StudyListOpen...)
		for i, e := range elems {
			body = AppendStudyListElem(body, i, e)
		}
		body = append(body, StudyListClose...)
	}
	WriteBody(w, http.StatusOK, body)
}

// AppendStudyListElem appends element i of the study list, elem, to a body
// that holds StudyListOpen and elements 0 to i-1.
func AppendStudyListElem(body []byte, i int, elem string) []byte {
	if i > 0 {
		body = append(body, ',')
	}
	return append(append(body, StudyListSep...), elem...)
}

// WriteError writes err in the APIError envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, APIError{Error: err.Error()})
}
