package journal

import "rldecide/internal/jsonbytes"

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
	d := jsonbytes.NewCursor(string(line))
	var r Record
	d.Expect(`{"id":`)
	r.ID = d.Int()
	d.Expect(`,"params":{`)
	r.Params = map[string]string{}
	d.Members(func(k string) { r.Params[k] = d.Str() })
	if d.Accept(`,"values":{`) {
		r.Values = map[string]float64{}
		d.Members(func(k string) { r.Values[k] = d.Float() })
	}
	// false, "" and 0 are never written (omitempty), so only true and a
	// present string or number are recognised; json.Unmarshal takes the rest.
	r.Pruned = d.Accept(`,"pruned":true`)
	if d.Accept(`,"error":`) {
		r.Error = d.Str()
	}
	d.Expect(`,"seed":`)
	r.Seed = d.Uint()
	if d.Accept(`,"worker":`) {
		r.Worker = d.Str()
	}
	if d.Accept(`,"wall_ms":`) {
		r.WallMs = d.Float()
	}
	d.Expect("}")
	if !d.Done() {
		return false
	}
	*rec = r
	return true
}
