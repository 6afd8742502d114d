package daemon

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// APIError is the JSON error envelope every daemon API answers with.
type APIError struct {
	Error string `json:"error"`
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already out; an encode failure here surfaces to
	// the client as a truncated body.
	_ = enc.Encode(v)
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
// StudyListElem encoding: one buffer of the final size, one Write, an
// explicit Content-Length.
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
			if i > 0 {
				body = append(body, ',')
			}
			body = append(append(body, StudyListSep...), e...)
		}
		body = append(body, StudyListClose...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	// A gone client is the only way this write fails.
	_, _ = w.Write(body)
}

// WriteError writes err in the APIError envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, APIError{Error: err.Error()})
}
