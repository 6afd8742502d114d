package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rldecide/internal/core"
)

// readJSON is Read with no fast path — every line through json.Unmarshal —
// the reference FuzzRead holds Read to.
func readJSON(data []byte) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	line, badLine := 0, 0
	var badErr error
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if badErr != nil {
			return nil, fmt.Errorf("journal: line %d: %w", badLine, badErr)
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			badErr, badLine = err, line
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if badErr != nil {
		return out, fmt.Errorf("journal: line %d: %v: %w", badLine, badErr, ErrTruncated)
	}
	return out, nil
}

// FuzzRead feeds arbitrary bytes to the journal line parser. Invariants:
// Read never panics, returns the records and the error — message and line
// number included — that reading every line with json.Unmarshal returns, a
// nil/ErrTruncated result yields records that round-trip through
// re-encoding, and a truncated read is a prefix of what a strict re-read
// of the re-encoded records returns.
func FuzzRead(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"id":1,"params":{"lr":"0.01"},"values":{"reward":1.5},"seed":42}` + "\n"))
	f.Add([]byte(`{"id":1,"seed":1}` + "\n" + `{"id":2,"seed":2}` + "\n"))
	f.Add([]byte(`{"id":1,"seed":1}` + "\n" + `{"id":2,"se`)) // torn tail
	f.Add([]byte(`not json at all` + "\n" + `{"id":3,"seed":3}` + "\n"))
	f.Add([]byte(`{"id":-5,"error":"boom","pruned":true,"seed":0}` + "\n"))
	f.Add([]byte(`{"id":7,"params":{"x":"0.5"},"values":{"f":0.25},"seed":11,"worker":"w1"}` + "\n"))
	f.Add([]byte(`{"id":8,"seed":12,"worker":"w2"}` + "\n" + `{"id":9,"seed":13,"worke`)) // torn tail on the worker field
	f.Add([]byte(`{"id":10,"seed":14,"worker":"w1","wall_ms":12.5}` + "\n"))
	f.Add([]byte(`{"id":11,"seed":15,"wall_ms":0.25}` + "\n" + `{"id":12,"seed":16,"wall_`)) // torn tail on the wall_ms field
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		wantRecords, wantErr := readJSON(data)
		if !reflect.DeepEqual(records, wantRecords) {
			t.Fatalf("records differ from the json.Unmarshal read:\n  %+v\n  %+v", records, wantRecords)
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
			errors.Is(err, ErrTruncated) != errors.Is(wantErr, ErrTruncated) {
			t.Fatalf("error differs from the json.Unmarshal read:\n  %v\n  %v", err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrTruncated) {
			// Corrupt input is rejected; nothing more to check.
			return
		}
		// Accepted records must round-trip bit-for-bit: re-encode and
		// strict-read them back.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rec := range records {
			if encErr := enc.Encode(rec); encErr != nil {
				t.Fatalf("re-encode accepted record %+v: %v", rec, encErr)
			}
		}
		again, err2 := Read(&buf)
		if err2 != nil {
			t.Fatalf("strict re-read of re-encoded records failed: %v", err2)
		}
		if len(again) != len(records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(records), len(again))
		}
		for i := range records {
			if !reflect.DeepEqual(normalize(records[i]), normalize(again[i])) {
				t.Fatalf("record %d changed in round trip:\n  %+v\n  %+v", i, records[i], again[i])
			}
		}
	})
}

// normalize erases the nil-vs-empty map distinction, which omitempty
// intentionally collapses on re-encode.
func normalize(r Record) Record {
	if len(r.Params) == 0 {
		r.Params = nil
	}
	if len(r.Values) == 0 {
		r.Values = nil
	}
	return r
}

// FuzzRepairFile writes arbitrary bytes as a journal file and repairs it.
// Invariants: RepairFile never panics, a failed repair leaves the file as
// it was, a successful one leaves a prefix of it (or all of it plus the
// missing final newline) that strict ReadFile accepts with no truncation,
// repair is idempotent, and the repaired file ends on a record boundary:
// after one Append a strict read returns the same records and one more.
func FuzzRepairFile(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"id":1,"seed":1}` + "\n"))
	f.Add([]byte(`{"id":1,"seed":1}` + "\n" + `{"id":2,"seed":2}`)) // missing newline
	f.Add([]byte(`{"id":1,"seed":1}` + "\n" + `{"tor`))
	f.Add([]byte(`{"id":1,"seed":1,"worker":"w1"}` + "\n" + `{"id":2,"seed":2,"worker":"w`))   // torn worker attribution
	f.Add([]byte(`{"id":1,"seed":1,"wall_ms":3.5}` + "\n" + `{"id":2,"seed":2,"wall_ms":1.2`)) // torn wall-clock field
	f.Add([]byte("\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, err := RepairFile(path)
		if err != nil {
			// Mid-file corruption: the file must be left untouched.
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("file vanished after failed repair: %v", rerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("failed repair modified the file")
			}
			return
		}
		// Nothing before the cut is rewritten.
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, after) && !bytes.Equal(after, append(bytes.Clone(data), '\n')) {
			t.Fatalf("repair rewrote the file:\n  %q\n  %q", data, after)
		}
		// A successful repair leaves a strict-readable file.
		again, err2 := ReadFile(path)
		if err2 != nil {
			t.Fatalf("post-repair strict read failed: %v", err2)
		}
		if !reflect.DeepEqual(records, again) {
			t.Fatalf("post-repair read mismatch:\n  %+v\n  %+v", records, again)
		}
		// And repairing again is a no-op.
		again2, err3 := RepairFile(path)
		if err3 != nil || !reflect.DeepEqual(records, again2) {
			t.Fatalf("repair not idempotent: %v\n  %+v\n  %+v", err3, records, again2)
		}
		// The resumed run's first append starts its own line.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		next := core.Trial{ID: 1 << 40, Seed: 7}
		if err := NewWriter(f).Append(next); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		grown, err := ReadFile(path)
		if err != nil {
			t.Fatalf("strict read after one append to the repaired file: %v", err)
		}
		if len(grown) != len(records)+1 || grown[len(records)].ID != next.ID {
			t.Fatalf("append to the repaired file: %d records, then\n  %+v", len(records), grown)
		}
		for i := range records {
			if !reflect.DeepEqual(grown[i], records[i]) {
				t.Fatalf("append to the repaired file changed record %d:\n  %+v\n  %+v", i, records[i], grown[i])
			}
		}
	})
}

// FuzzSegmentedRecovery appends fuzzed trials to a SegWriter at a fuzzed
// cap, then tears the active file at a fuzzed offset, as a crash mid-write
// would. Invariants: every sealed segment ends in a newline, RepairSegmented
// returns exactly the records whose line was whole before the tear (a
// record that lost only its newline is whole), in append order, and a
// second repair changes neither the files nor the records.
func FuzzSegmentedRecovery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(100), uint16(50))
	f.Add([]byte{0, 15, 30, 45}, uint16(0), uint16(9))
	f.Add([]byte("a longer history of trials"), uint16(1), uint16(1000))
	f.Add([]byte{9, 9, 9}, uint16(300), uint16(0))
	f.Fuzz(func(t *testing.T, seeds []byte, maxBytes, tear uint16) {
		if len(seeds) > 24 {
			seeds = seeds[:24]
		}
		path := filepath.Join(t.TempDir(), "s0001.trials.jsonl")
		w, err := OpenSegmented(path, int64(maxBytes%512))
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range seeds {
			tr := core.Trial{ID: i, Seed: uint64(b), Pruned: b%3 == 0, Worker: fmt.Sprintf("w%d", b%4)}
			tr.Values.Set("m", float64(b)/7)
			if b%5 == 0 {
				tr.Err = fmt.Errorf("boom %d", b)
			}
			if err := w.Append(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		all, err := ReadSegmented(path)
		if err != nil || len(all) != len(seeds) {
			t.Fatalf("untorn read: %d of %d records, %v", len(all), len(seeds), err)
		}
		segs, err := SegmentFiles(path)
		if err != nil {
			t.Fatal(err)
		}
		sealed := 0
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 || data[len(data)-1] != '\n' {
				t.Fatalf("sealed segment %s does not end in a newline: %q", seg, data)
			}
			sealed += bytes.Count(data, []byte("\n"))
		}

		active, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := int(tear) % (len(active) + 1)
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		whole := sealed
		for start := 0; start < len(active); {
			end := start + bytes.IndexByte(active[start:], '\n')
			if end > cut {
				break
			}
			whole++
			start = end + 1
		}

		got, err := RepairSegmented(path)
		if err != nil {
			t.Fatalf("repair after a tear at %d of %d: %v", cut, len(active), err)
		}
		if len(got) != whole || whole > 0 && !reflect.DeepEqual(got, all[:whole]) {
			t.Fatalf("repair after a tear at %d of %d: %d records, want the %d whole ones", cut, len(active), len(got), whole)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := RepairSegmented(path)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("second repair: %d records, %v; want %d", len(again), err, len(got))
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, repaired) {
			t.Fatalf("second repair changed the active file: %q -> %q (%v)", repaired, after, err)
		}
	})
}
