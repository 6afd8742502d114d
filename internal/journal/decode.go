package journal

import (
	"encoding/json"

	"rldecide/internal/core"
	"rldecide/internal/jsonbytes"
	"rldecide/internal/param"
)

// The record decoder is the inverse of AppendRecord and nothing more: it
// recognises the one byte form the writer emits — keys in the fixed order
// id, params, values?, pruned?, error?, seed, worker?, wall_ms?, no
// whitespace, JSON-grammar numbers, strings that needed no escaping — and
// declines every other line, which is then handed to json.Unmarshal as it
// always was. encoding/json therefore stays the authority on what a valid,
// torn or corrupt line is; the fast path only ever answers for lines on
// which the two provably agree (TestDecodeRecordMatchesJSON,
// FuzzDecodeRecord), so declining is always safe and accepting never
// changes a result. A journal written by an older encoder, by hand, or
// with escaped strings simply reads at the old speed.
//
// walkRecord is that byte form, written down once. decodeRecord walks a
// line into a Record; trialDecoder walks it straight into a core.Trial,
// with no Record maps between (TestDecodeTrialMatchesRecordRoute,
// FuzzDecodeTrial).

// walkRecord reads line when it is in the writer's own form: it returns
// the record's scalar fields (Params and Values nil), hands each params
// member to param and each values member to value, in line order, and
// reports whether the line had a values object. ok is false, and the
// Record zero, for a line in any other form; param and value may have run
// by then. The line is copied once and every string handed out is a
// substring of that copy.
func walkRecord(line []byte, param func(name, raw string), value func(name string, v float64)) (r Record, values, ok bool) {
	d := jsonbytes.NewCursor(string(line))
	d.Expect(`{"id":`)
	r.ID = d.Int()
	d.Expect(`,"params":{`)
	d.Members(func(k string) { param(k, d.Str()) })
	if values = d.Accept(`,"values":{`); values {
		d.Members(func(k string) { value(k, d.Float()) })
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
		return Record{}, false, false
	}
	return r, values, true
}

// decodeRecord decodes line into rec when line is in the writer's own
// form, and reports whether it did; rec is untouched otherwise. A repeated
// key lands in the same map entry again, last wins, as in encoding/json.
func decodeRecord(line []byte, rec *Record) bool {
	params, values := map[string]string{}, map[string]float64{}
	r, hasValues, ok := walkRecord(line,
		func(k, raw string) { params[k] = raw },
		func(k string, v float64) { values[k] = v })
	if !ok {
		return false
	}
	r.Params = params
	if hasValues {
		r.Values = values
	}
	*rec = r
	return true
}

// decodeLine is the line decoder of every []Record reader.
func decodeLine(line []byte, rec *Record) error {
	if decodeRecord(line, rec) {
		return nil
	}
	return json.Unmarshal(line, rec)
}

// trialDecoder reads journal lines straight into trials of one space. A
// line in the writer's form is walked once: its parameters resolve
// through rs and, with its metrics, land in cap-limited regions of two
// slabs, so a recovered trial costs its line's copy and a share of a slab.
// Every other line goes json.Unmarshal → Record → rs.Trial, the route
// Trials takes. Either way the trial is the one rs.Trial(decodeLine(line))
// gives, down to nil versus empty (Params is never nil, Values is nil when
// empty).
type trialDecoder struct {
	rs *Resolver
	// raw and vals hold the current line's members, name-sorted, a
	// repeated name keeping its last value; raw binds each name to its
	// rendering.
	raw   param.Assignment
	vals  core.Values
	pslab []param.Binding
	vslab []core.MetricValue
}

// decode decodes line into t. lineErr is decodeLine's verdict on a line
// that is no record (the scanner's torn-tail rule applies to it);
// resolveErr reports a record naming a parameter the space does not have,
// or holding a rendering it cannot take, which is never a torn tail.
func (td *trialDecoder) decode(line []byte, t *core.Trial) (lineErr, resolveErr error) {
	td.raw, td.vals = td.raw[:0], td.vals[:0]
	r, _, ok := walkRecord(line, func(name, raw string) { td.raw.Set(name, param.Str(raw)) }, td.vals.Set)
	if !ok {
		return td.viaRecord(line, t)
	}
	*t = r.head()
	t.Params = param.Assignment{}
	if len(td.raw) > 0 {
		t.Params = carve(&td.pslab, len(td.raw))
	}
	for i, b := range td.raw {
		v, err := td.rs.value(b.Name, b.Value.Str())
		if err != nil {
			return nil, err
		}
		t.Params[i] = param.Binding{Name: b.Name, Value: v}
	}
	if len(td.vals) > 0 {
		t.Values = carve(&td.vslab, len(td.vals))
		copy(t.Values, td.vals)
	}
	return nil, nil
}

// viaRecord is decode for a line the walk declined: json.Unmarshal, then
// rs.Trial. It is a function of its own so that only such lines pay for
// the Record that escapes into json.Unmarshal.
func (td *trialDecoder) viaRecord(line []byte, t *core.Trial) (lineErr, resolveErr error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return err, nil
	}
	*t, resolveErr = td.rs.Trial(r)
	return nil, resolveErr
}

// slabRecords is how many records' worth of parameters or metrics one
// slab chunk holds.
const slabRecords = 64

// carve returns the next n elements of *slab, cap-limited so that an
// append to them reallocates instead of growing into a neighbour, and
// starts a new chunk when the slab runs out.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, slabRecords*n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}
