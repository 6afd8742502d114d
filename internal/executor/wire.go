package executor

import (
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"

	"rldecide/internal/jsonbytes"
)

// The dispatch codec: both bodies of POST /run written and read in the one
// byte form encoding/json gives them, without encoding/json. The encoders
// produce exactly what json.Marshal(req) and json.NewEncoder(w).Encode(res)
// produce — keys in field order, map keys sorted, strings HTML-safe escaped,
// floats in encoding/json's format, the result with Encode's newline — so
// the wire is what it was and either end may be an older build. The
// opaque or rare fields, a full-send spec and the spans a traced dispatch
// returns, are still written by json.Marshal.
//
// The decoders read back that form only, in the accept-or-decline idiom of
// journal.decodeRecord: plain strings (no escape, no control byte, valid
// UTF-8), JSON-grammar numbers, nothing before or after the message, no
// spec and no spans. Every other body — a full send, a traced result, an
// escaped string, any other valid JSON — is declined to the
// json.NewDecoder(...).Decode call the handlers always made, so encoding/json
// stays the authority on what a body means and what an error says
// (TestTrialRequestWireMatchesJSON, TestTrialResultWireMatchesJSON,
// FuzzDecodeTrialRequest, FuzzDecodeTrialResult).

// maxRunBody bounds each body of POST /run, as the router bounds a study
// submission: the codec reads a body whole before decoding it.
const maxRunBody = 4 << 20

// appendTrialRequest appends the bytes json.Marshal(req) writes to dst.
func appendTrialRequest(dst []byte, req TrialRequest) ([]byte, error) {
	dst = append(dst, `{"study_id":`...)
	dst = jsonbytes.AppendString(dst, req.StudyID)
	dst = append(dst, `,"trial_id":`...)
	dst = strconv.AppendInt(dst, int64(req.TrialID), 10)
	if len(req.Spec) > 0 {
		spec, err := json.Marshal(req.Spec)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"spec":`...)
		dst = append(dst, spec...)
	}
	if req.SpecHash != "" {
		dst = append(dst, `,"spec_hash":`...)
		dst = jsonbytes.AppendString(dst, req.SpecHash)
	}
	dst = append(dst, `,"params":`...)
	if req.Params == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '{')
		var buf [8]member[string]
		for i, m := range sortedMembers(buf[:0], req.Params) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonbytes.AppendString(dst, m.key)
			dst = append(dst, ':')
			dst = jsonbytes.AppendString(dst, m.value)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, req.Seed, 10)
	return append(dst, '}'), nil
}

// appendTrialResult appends the bytes json.NewEncoder(w).Encode(res)
// writes to dst. Like encoding/json it refuses a NaN or infinite value.
func appendTrialResult(dst []byte, res TrialResult) ([]byte, error) {
	dst = append(dst, `{"study_id":`...)
	dst = jsonbytes.AppendString(dst, res.StudyID)
	dst = append(dst, `,"trial_id":`...)
	dst = strconv.AppendInt(dst, int64(res.TrialID), 10)
	if len(res.Values) > 0 {
		dst = append(dst, `,"values":{`...)
		var buf [8]member[float64]
		for i, m := range sortedMembers(buf[:0], res.Values) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonbytes.AppendString(dst, m.key)
			dst = append(dst, ':')
			var err error
			if dst, err = jsonbytes.AppendFloat(dst, m.value); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if res.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonbytes.AppendString(dst, res.Error)
	}
	if res.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = jsonbytes.AppendString(dst, res.Worker)
	}
	if res.WallMs != 0 {
		dst = append(dst, `,"wall_ms":`...)
		var err error
		if dst, err = jsonbytes.AppendFloat(dst, res.WallMs); err != nil {
			return dst, err
		}
	}
	if len(res.Spans) > 0 {
		spans, err := json.Marshal(res.Spans)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"spans":`...)
		dst = append(dst, spans...)
	}
	return append(dst, '}', '\n'), nil
}

// member is one map entry on its way to the wire.
type member[V any] struct {
	key   string
	value V
}

// sortedMembers appends m's entries to dst in encoding/json's map key order
// (plain string comparison).
func sortedMembers[V any](dst []member[V], m map[string]V) []member[V] {
	for k, v := range m {
		dst = append(dst, member[V]{k, v})
	}
	slices.SortFunc(dst, func(a, b member[V]) int { return strings.Compare(a.key, b.key) })
	return dst
}

// decodeTrialRequest decodes body into req when body is a hash-only
// request in appendTrialRequest's form, and reports whether it did; req is
// untouched otherwise. Every string of the request is a substring of one
// copy of body.
func decodeTrialRequest(body []byte, req *TrialRequest) bool {
	d := jsonbytes.NewCursor(string(body))
	var r TrialRequest
	d.Expect(`{"study_id":`)
	r.StudyID = d.Str()
	d.Expect(`,"trial_id":`)
	r.TrialID = d.Int()
	if d.Accept(`,"spec_hash":`) {
		r.SpecHash = d.Str()
	}
	d.Expect(`,"params":`)
	if !d.Accept("null") {
		d.Expect("{")
		r.Params = map[string]string{}
		d.Members(func(k string) { r.Params[k] = d.Str() })
	}
	d.Expect(`,"seed":`)
	r.Seed = d.Uint()
	d.Expect("}")
	if !d.Done() {
		return false
	}
	*req = r
	return true
}

// decodeTrialResult decodes body into res when body is a result without
// spans in appendTrialResult's form, and reports whether it did; res is
// untouched otherwise.
func decodeTrialResult(body []byte, res *TrialResult) bool {
	d := jsonbytes.NewCursor(string(body))
	var r TrialResult
	d.Expect(`{"study_id":`)
	r.StudyID = d.Str()
	d.Expect(`,"trial_id":`)
	r.TrialID = d.Int()
	if d.Accept(`,"values":{`) {
		r.Values = map[string]float64{}
		d.Members(func(k string) { r.Values[k] = d.Float() })
	}
	if d.Accept(`,"error":`) {
		r.Error = d.Str()
	}
	if d.Accept(`,"worker":`) {
		r.Worker = d.Str()
	}
	if d.Accept(`,"wall_ms":`) {
		r.WallMs = d.Float()
	}
	d.Expect("}\n")
	if !d.Done() {
		return false
	}
	*res = r
	return true
}

// readRunBody reads r to its end into one buffer, presized from the
// declared length n when that is within maxRunBody (so a body is read in
// place, but not on the word of a header alone past what a dispatch has
// any business being). Bounding the read is the caller's.
func readRunBody(r io.Reader, n int64) ([]byte, error) {
	size := int64(512)
	if 0 < n && n <= maxRunBody {
		size = n + 1 // room to see EOF without growing
	}
	buf := make([]byte, 0, size)
	for {
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}
