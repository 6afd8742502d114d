package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/jsonbytes"
	"rldecide/internal/studyd"
)

// ---- the reference: the list as the router computed it with encoding/json alone

// referenceSplit reads one backend body the way listStudies used to: a
// json.Decoder for the envelope, a json.Unmarshal probe per element.
func referenceSplit(body []byte) (ids []string, raws []json.RawMessage, err error) {
	var payload struct {
		Studies []json.RawMessage `json:"studies"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&payload); err != nil {
		return nil, nil, err
	}
	for _, raw := range payload.Studies {
		var p summaryProbe
		if err := json.Unmarshal(raw, &p); err != nil || p.ID == "" {
			continue
		}
		ids = append(ids, p.ID)
		raws = append(raws, raw)
	}
	return ids, raws, nil
}

// writeJSONBody is the body daemon.WriteJSON makes of v.
func writeJSONBody(v any) []byte {
	rec := httptest.NewRecorder()
	daemon.WriteJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// referenceList merges backend bodies (given in backend name order) as
// the router used to — every element, sorted by ID, re-encoded by
// WriteJSON.
func referenceList(t *testing.T, bodies ...[]byte) []byte {
	t.Helper()
	type entry struct {
		id  string
		raw json.RawMessage
	}
	var entries []entry
	for _, body := range bodies {
		ids, raws, err := referenceSplit(body)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			entries = append(entries, entry{ids[i], raws[i]})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]json.RawMessage, len(entries))
	for i, e := range entries {
		out[i] = e.raw
	}
	return writeJSONBody(map[string]any{"studies": out})
}

// spliceBody is the router's body for entries.
func spliceBody(entries []listEntry) []byte {
	elems := make([]string, len(entries))
	for i, e := range entries {
		elems[i] = e.raw
	}
	rec := httptest.NewRecorder()
	daemon.WriteStudyList(rec, elems)
	return rec.Body.Bytes()
}

// ---- stub backends

// listStub is a backend that answers GET /studies with a fixed status and
// body, and is otherwise healthy.
func listStub(t *testing.T, status int, body []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/studies" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func summary(id, name string, status studyd.Status, gen int) studyd.Summary {
	return studyd.Summary{ID: id, Name: name, Daemon: strings.SplitN(id, "-", 2)[0], Generation: gen,
		Status: status, Objective: "sphere", Explorer: "random", Budget: 16, Finished: 16, Parallelism: 2, Seed: 5}
}

// daemonBody is a serve daemon's list of sums (studyd's
// TestListMatchesWriteJSON pins that equality on the daemon's side).
func daemonBody(sums ...studyd.Summary) []byte {
	if sums == nil {
		sums = []studyd.Summary{}
	}
	return writeJSONBody(map[string]any{"studies": sums})
}

// trickySummaries covers every state and every kind of string the encoder
// treats specially.
func trickySummaries(prefix string) []studyd.Summary {
	failed := summary(prefix+"-s0004", `back\slash and "quotes"`, studyd.StatusFailed, 1)
	failed.Error = "objective: <nil> & worse"
	owned := summary(prefix+"-s0005", "owned \u2028 line sep", studyd.StatusInterrupted, 3)
	owned.Tenant, owned.Resumed = "alice", 4
	torn := summary(prefix+"-s0006", "journal trouble", studyd.StatusDone, 1)
	torn.JournalErr = "write s0006.trials.jsonl: no space left on device"
	return []studyd.Summary{
		summary(prefix+"-s0010", "listed out of order", studyd.StatusDone, 1),
		summary(prefix+"-s0001", "plain", studyd.StatusPending, 0),
		summary(prefix+"-s0002", "<html> & co", studyd.StatusRunning, 1),
		summary(prefix+"-s0003", "naïve 試験 \x01 \xff", studyd.StatusDone, 1),
		failed, owned, torn,
		summary(prefix+"-s0007", strings.Repeat("2KB ", 512), studyd.StatusDone, 1),
	}
}

// summaries decodes a list body.
func summaries(body []byte, err error) ([]studyd.Summary, error) {
	var list struct {
		Studies []studyd.Summary `json:"studies"`
	}
	if err == nil {
		err = json.Unmarshal(body, &list)
	}
	return list.Studies, err
}

// mustList is the router's list, decoded.
func mustList(t *testing.T, routerURL string) []studyd.Summary {
	t.Helper()
	list, err := summaries(get(routerURL + "/studies"))
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// ---- tests

// TestRouterListMatchesWriteJSON: the router's body is byte for byte what
// decoding every backend body and re-encoding the merged elements with
// daemon.WriteJSON gives, and a serve daemon's body is taken whole by the
// splitter rather than handed to encoding/json.
func TestRouterListMatchesWriteJSON(t *testing.T) {
	alpha, beta, empty := daemonBody(trickySummaries("alpha")...), daemonBody(trickySummaries("beta")...), daemonBody()
	for _, body := range [][]byte{alpha, beta, empty} {
		if !checkSplit(t, body) {
			t.Fatalf("daemon body declined:\n%s", body)
		}
	}
	for name, bodies := range map[string][][]byte{
		"one":           {alpha},
		"one, empty":    {empty},
		"two":           {alpha, beta},
		"two, an empty": {empty, beta},
	} {
		var backends []Backend
		for i, body := range bodies {
			backends = append(backends, Backend{Name: fmt.Sprintf("b%d", i), URL: listStub(t, http.StatusOK, body).URL})
		}
		_, tsR := newRouter(t, Config{Backends: backends})
		if got, want := mustGet(t, tsR.URL+"/studies"), referenceList(t, bodies...); !bytes.Equal(got, want) {
			t.Errorf("%s:\n%s\nwant\n%s", name, got, want)
		}
	}
	if got := string(referenceList(t, empty)); got != "{\n  \"studies\": []\n}\n" {
		t.Fatalf("empty list reads %q", got)
	}

	// The same through live daemons: what a serve daemon really writes is
	// what the splitter accepts.
	d, tsD := newBackend(t, t.TempDir(), "alpha", "")
	for i := 0; i < 3; i++ {
		spec := shardSpec("sphere")
		spec.Budget = 2
		m, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, studyd.StatusDone)
	}
	body := mustGet(t, tsD.URL+"/studies")
	if !checkSplit(t, body) {
		t.Fatalf("live daemon body declined:\n%s", body)
	}
	_, tsR := newRouter(t, Config{Backends: []Backend{{Name: "alpha", URL: tsD.URL}}})
	if got, want := mustGet(t, tsR.URL+"/studies"), referenceList(t, body); !bytes.Equal(got, want) {
		t.Fatalf("live:\n%s\nwant\n%s", got, want)
	}

	// Relisting resumes each backend's split where its body stops matching
	// the last one: the same body; one middle element changed and two
	// appended; the first element changed; a foreign body, which leaves
	// no memo; the daemon's form again. The answer is the reference one
	// every time, with the alpha entries in ID order (no sort) and out of
	// it.
	sorted := trickySummaries("alpha")
	slices.SortFunc(sorted, func(a, b studyd.Summary) int { return strings.Compare(a.ID, b.ID) })
	for name, tc := range map[string]struct {
		base   []studyd.Summary
		others [][]byte
	}{
		"one, in order":     {sorted, nil},
		"one, out of order": {trickySummaries("alpha"), nil},
		"two":               {sorted, [][]byte{beta}},
	} {
		middle := slices.Clone(tc.base)
		middle[len(middle)/2].Status, middle[len(middle)/2].Finished = studyd.StatusRunning, 9
		middle = append(middle, summary("alpha-s0011", "appended", studyd.StatusPending, 1),
			summary("alpha-s0012", "appended", studyd.StatusRunning, 1))
		first := slices.Clone(middle)
		first[0].Finished = 3
		stub := newSwapStub(t, nil)
		backends := []Backend{{Name: "alpha", URL: stub.URL}}
		for i, other := range tc.others {
			backends = append(backends, Backend{Name: fmt.Sprintf("b%d", i), URL: listStub(t, http.StatusOK, other).URL})
		}
		rt, tsR := newRouter(t, Config{Backends: backends})
		for i, body := range [][]byte{
			daemonBody(tc.base...), daemonBody(tc.base...), daemonBody(middle...), daemonBody(first...),
			[]byte(foreignBodies["compact"]), daemonBody(first...),
		} {
			stub.body.Store(&body)
			if got, want := mustGet(t, tsR.URL+"/studies"), referenceList(t, append([][]byte{body}, tc.others...)...); !bytes.Equal(got, want) {
				t.Fatalf("%s, listing %d:\n%s\nwant\n%s", name, i, got, want)
			}
			rt.listMu.Lock()
			memo := rt.lists["alpha"]
			rt.listMu.Unlock()
			if split := checkSplit(t, body); split != (memo != nil) || split && memo.body != string(body) {
				t.Fatalf("%s, listing %d: split %v, memo %+v", name, i, split, memo)
			}
		}
	}
}

// swapStub is a backend whose GET /studies body can be replaced between
// listings.
type swapStub struct {
	*httptest.Server
	body atomic.Pointer[[]byte]
}

func newSwapStub(t *testing.T, body []byte) *swapStub {
	t.Helper()
	s := &swapStub{}
	s.body.Store(&body)
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*s.body.Load())
	}))
	t.Cleanup(s.Close)
	return s
}

// foreignBodies are list bodies no serve daemon writes but encoding/json
// reads: whether the splitter takes each or declines it, the router's
// answer must be the one encoding/json alone would give.
var foreignBodies = map[string]string{
	"compact":        `{"studies":[{"id":"a-s0001","name":"x"},{"id":"a-s0002","name":"y"}]}`,
	"crlf":           "{\r\n  \"studies\": [\r\n    {\r\n      \"id\": \"a-s0001\"\r\n    }\r\n  ]\r\n}\r\n",
	"reordered":      "{\n  \"studies\": [\n    {\n      \"name\": \"x\",\n      \"id\": \"a-s0001\"\n    }\n  ]\n}\n",
	"nested":         "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"labels\": {\n        \"k\": [\n          1,\n          2\n        ]\n      }\n    },\n    {\n      \"id\": \"a-s0002\"\n    }\n  ]\n}\n",
	"float":          "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"eps\": 1.5e-3\n    }\n  ]\n}\n",
	"duplicate id":   "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"id\": \"a-s0002\"\n    }\n  ]\n}\n",
	"escaped id":     "{\n  \"studies\": [\n    {\n      \"id\": \"a-s\\u0030001\"\n    }\n  ]\n}\n",
	"html id":        "{\n  \"studies\": [\n    {\n      \"id\": \"a<s0001\"\n    }\n  ]\n}\n",
	"non-ascii id":   "{\n  \"studies\": [\n    {\n      \"id\": \"ä-s0001\"\n    }\n  ]\n}\n",
	"invalid id":     "{\n  \"studies\": [\n    {\n      \"id\": \"a\xffs0001\"\n    }\n  ]\n}\n",
	"empty id":       "{\n  \"studies\": [\n    {\n      \"id\": \"\"\n    }\n  ]\n}\n",
	"upper-case key": "{\n  \"studies\": [\n    {\n      \"ID\": \"a-s0001\"\n    }\n  ]\n}\n",
	"raw lt":         "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"a<b\"\n    }\n  ]\n}\n",
	"raw gt":         "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"a>b\"\n    }\n  ]\n}\n",
	"raw amp":        "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"a&b\"\n    }\n  ]\n}\n",
	"raw u2028":      "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"a\u2028b\"\n    }\n  ]\n}\n",
	"raw u2029":      "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"a\u2029b\"\n    }\n  ]\n}\n",
	"raw del":        "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"a\x7fb\"\n    }\n  ]\n}\n",
	"numeric id":     "{\n  \"studies\": [\n    {\n      \"id\": 7\n    },\n    {\n      \"id\": \"a-s0002\"\n    }\n  ]\n}\n",
	"numeric daemon": "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"daemon\": 7\n    }\n  ]\n}\n",
	"no id":          "{\n  \"studies\": [\n    {\n      \"name\": \"x\"\n    },\n    null,\n    {},\n    17\n  ]\n}\n",
	"other keys":     "{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\"\n    }\n  ],\n  \"next\": null\n}\n",
	"trailing junk":  "{\n  \"studies\": []\n}\n]",
	"null list":      `{"studies":null}`,
	"not a list":     `{"error":"draining"}`,
}

// tornBodies are rejected by encoding/json; the splitter must decline them
// so that the backend is counted as failed.
var tornBodies = []string{
	"",
	"{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\"\n    }",
	"{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\"\n    },\n    {\n      \"id\": \"a-s0002\",\n      \"labels\": {\n  ]\n}\n",
	"{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"name\": \"bad \\x escape\"\n    }\n  ]\n}\n",
	"{\n  \"studies\": [\n    {\n      \"id\": \"a-s0001\",\n      \"budget\": 016\n    }\n  ]\n}\n",
}

// checkSplit holds the splitter to decodeList, its decline target, and
// decodeList to the encoding/json reading of body. It reports whether the
// splitter took the body.
func checkSplit(t *testing.T, body []byte) bool {
	t.Helper()
	accepted, err := jsonbytes.Differential(body,
		func(b []byte, e *[]listEntry) (ok bool) {
			*e, ok = splitList(string(b), "b", nil, &listMemo{})
			return ok
		},
		func(b []byte, e *[]listEntry) (err error) { *e, err = decodeList(string(b), "b", nil); return err })
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, wantRaws, refErr := referenceSplit(body)
	got, err := decodeList(string(body), "b", nil)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("decodeList: %v, encoding/json: %v, on\n%q", err, refErr, body)
	}
	if refErr != nil {
		return accepted
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("%d elements, want %d:\n%q", len(got), len(wantIDs), body)
	}
	for i, e := range got {
		if e.id != wantIDs[i] {
			t.Fatalf("element %d has ID %q, want %q:\n%q", i, e.id, wantIDs[i], body)
		}
	}
	if wantRaws == nil {
		wantRaws = []json.RawMessage{}
	}
	if out, want := spliceBody(got), writeJSONBody(map[string]any{"studies": wantRaws}); !bytes.Equal(out, want) {
		t.Fatalf("spliced\n%q\nwant\n%q\nfrom\n%q", out, want, body)
	}
	return accepted
}

func TestSplitListForeignAndTorn(t *testing.T) {
	for name, body := range foreignBodies {
		if _, _, err := referenceSplit([]byte(body)); err != nil {
			t.Fatalf("%s: not a foreign body but a torn one: %v", name, err)
		}
		checkSplit(t, []byte(body))
	}
	for _, body := range tornBodies {
		if _, _, err := referenceSplit([]byte(body)); err == nil {
			t.Fatalf("not torn:\n%q", body)
		}
		checkSplit(t, []byte(body))
	}
	// Near misses of a daemon body, kept short: four of the tricky summaries.
	rng := rand.New(rand.NewPCG(28, 0x5b1))
	body := daemonBody(trickySummaries("alpha")[:4]...)
	for i := 0; i < 200; i++ {
		for _, damaged := range jsonbytes.Damaged(rng, body) {
			checkSplit(t, damaged)
		}
	}
}

func FuzzSplitList(f *testing.F) {
	f.Add(daemonBody(trickySummaries("alpha")...))
	f.Add(daemonBody(summary("a-s0001", "one", studyd.StatusDone, 1)))
	f.Add(daemonBody())
	for _, body := range foreignBodies {
		f.Add([]byte(body))
	}
	for _, body := range tornBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkSplit(t, body) })
}

// checkResume holds the split of b resumed from a's memo to the split of b
// from the start: the same accept or decline, entries, spliced output and
// memo.
func checkResume(t *testing.T, a, b []byte) {
	t.Helper()
	memo := &listMemo{}
	splitList(string(a), "b", nil, memo)
	got, ok := splitList(string(b), "b", nil, memo)
	fresh := &listMemo{}
	want, wantOK := splitList(string(b), "b", nil, fresh)
	switch {
	case ok != wantOK:
		t.Fatalf("resumed split took %q: %v, fresh: %v (after %q)", b, ok, wantOK, a)
	case !slices.Equal(got, want):
		t.Fatalf("resumed split of %q:\n%q\nfresh:\n%q\n(after %q)", b, got, want, a)
	case ok && !bytes.Equal(spliceBody(got), spliceBody(want)):
		t.Fatalf("resumed split of %q splices differently (after %q)", b, a)
	case memo.body != fresh.body || !slices.Equal(memo.spans, fresh.spans):
		t.Fatalf("memo after %q then %q: %+v, fresh: %+v", a, b, memo, fresh)
	case !ok && (memo.body != "" || memo.spans != nil):
		t.Fatalf("declined %q but kept a memo %+v", b, memo)
	}
}

// resumePairs are the seeds of FuzzSplitListResume: a body, then the one
// that follows it. The bodies are kept short, which keeps the fuzzer's
// minimization of an input short: four of the tricky summaries.
func resumePairs() [][2][]byte {
	sums := trickySummaries("alpha")[:4]
	grown := append(slices.Clone(sums), summary("alpha-s0011", "next", studyd.StatusPending, 1))
	last := slices.Clone(sums)
	last[len(last)-1].Status, last[len(last)-1].Finished = studyd.StatusRunning, 5
	first := slices.Clone(sums)
	first[0].Finished = 2
	full := daemonBody(sums...)
	return [][2][]byte{
		{full, daemonBody(grown...)},
		{full, daemonBody(last...)},
		{full, daemonBody(first...)},
		{[]byte(foreignBodies["compact"]), full},
		{full, full[:len(full)-len(daemon.StudyListClose)-5]},
		{full, bytes.Replace(full, []byte("\n    },"), []byte("\n    ],"), 1)}, // the first element's last byte
		{full, full},
		{daemonBody(), full},
		{full, daemonBody()},
	}
}

func TestSplitListResume(t *testing.T) {
	for _, p := range resumePairs() {
		checkResume(t, p[0], p[1])
	}
}

func FuzzSplitListResume(f *testing.F) {
	for _, p := range resumePairs() {
		f.Add(p[0], p[1])
	}
	f.Fuzz(checkResume)
}

// BenchmarkSplitListResume3500 splits a list of 3500 done studies and then
// the same list with four more, each resuming from the memo of the body
// before it (resumed) or from an empty memo, as a router's first listing
// does (fresh). In head, the first element of the shorter body differs
// too, so every split resumes from a memo that matches none of it: a body
// that changes near its head. An iteration is the two splits.
func BenchmarkSplitListResume3500(b *testing.B) {
	sums := make([]studyd.Summary, 3504)
	for i := range sums {
		sums[i] = summary(fmt.Sprintf("d0-s%04d", i+1), "bench", studyd.StatusDone, 1)
	}
	changed := slices.Clone(sums[:3500])
	changed[0].Finished = 2
	grown := [2]string{string(daemonBody(sums[:3500]...)), string(daemonBody(sums...))}
	for _, c := range []struct {
		name   string
		bodies [2]string
		resume bool
	}{
		{"fresh", grown, false},
		{"resumed", grown, true},
		{"head", [2]string{string(daemonBody(changed...)), grown[1]}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			memo := &listMemo{}
			entries := make([]listEntry, 0, len(sums))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, body := range c.bodies {
					if !c.resume {
						memo = &listMemo{}
					}
					var ok bool
					if entries, ok = splitList(body, "d0", entries[:0], memo); !ok {
						b.Fatal("declined")
					}
				}
			}
		})
	}
}

// TestRouterListSkipsFailingBackend: a backend answering GET /studies with
// an error status is a failed scrape, not a backend with no studies.
func TestRouterListSkipsFailingBackend(t *testing.T) {
	healthy := listStub(t, http.StatusOK, daemonBody(summary("alpha-s0001", "kept", studyd.StatusDone, 1)))
	draining := listStub(t, http.StatusServiceUnavailable, writeJSONBody(daemon.APIError{Error: "draining"}))

	rt, tsR := newRouter(t, Config{Backends: []Backend{{Name: "alpha", URL: healthy.URL}, {Name: "beta", URL: draining.URL}}})
	if list := mustList(t, tsR.URL); len(list) != 1 || list[0].ID != "alpha-s0001" {
		t.Fatalf("list with one backend failing: %+v", list)
	}
	if got := rt.metricScrapeErrors.Value(); got != 1 {
		t.Fatalf("%d scrape errors counted, want 1", got)
	}

	_, tsOnly := newRouter(t, Config{Backends: []Backend{{Name: "beta", URL: draining.URL}}})
	resp, err := http.Get(tsOnly.URL + "/studies")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("list with every backend failing: %d, want 502", resp.StatusCode)
	}
}

// TestRouterListOneSummaryPerID: an ID two backends both list appears
// once, as its highest generation (the first backend in name order on a
// tie), and the directory points at the backend that won.
func TestRouterListOneSummaryPerID(t *testing.T) {
	at := func(daemonName string, gen int) []byte {
		s := summary("alpha-s0001", "re-homed", studyd.StatusDone, gen)
		s.Daemon = daemonName
		return daemonBody(s, summary(daemonName+"-s0002", "own", studyd.StatusDone, 1))
	}
	for _, tc := range []struct {
		name              string
		genAlpha, genBeta int
		owner             string
	}{
		{"old owner sorts first", 1, 2, "beta"},
		{"old owner sorts last", 2, 1, "alpha"},
		{"tie", 2, 2, "alpha"},
	} {
		alpha, beta := listStub(t, http.StatusOK, at("alpha", tc.genAlpha)), listStub(t, http.StatusOK, at("beta", tc.genBeta))
		rt, tsR := newRouter(t, Config{Backends: []Backend{{Name: "beta", URL: beta.URL}, {Name: "alpha", URL: alpha.URL}}})
		var ids []string
		for _, s := range mustList(t, tsR.URL) {
			ids = append(ids, s.ID+"@"+s.Daemon)
		}
		if want := fmt.Sprintf("[alpha-s0001@%s alpha-s0002@alpha beta-s0002@beta]", tc.owner); fmt.Sprint(ids) != want {
			t.Errorf("%s: listed %v, want %s", tc.name, ids, want)
		}
		rt.mu.Lock()
		got := rt.placements["alpha-s0001"]
		rt.mu.Unlock()
		if got != tc.owner {
			t.Errorf("%s: directory has the study on %q, want %q", tc.name, got, tc.owner)
		}
		checkPlaced(t, rt)
	}
}

// checkPlaced recounts the directory and holds the per-backend counters,
// and what Ring.Place is given, to it.
func checkPlaced(t *testing.T, rt *Router) map[string]int {
	t.Helper()
	rt.mu.Lock()
	recount := map[string]int{}
	for _, owner := range rt.placements {
		recount[owner]++
	}
	placed := map[string]int{}
	for name, n := range rt.placed {
		if n != 0 {
			placed[name] = n
		}
	}
	rt.mu.Unlock()
	if fmt.Sprint(placed) != fmt.Sprint(recount) {
		t.Fatalf("placed counters %v, directory recount %v", placed, recount)
	}
	loads := rt.loads(rt.ring.Backends())
	for _, name := range rt.ring.Backends() {
		if loads[name] != recount[name] {
			t.Fatalf("loads %v, directory recount %v", loads, recount)
		}
	}
	return recount
}

// TestRouterPlacedCounters: the per-backend counts the ring places by stay
// equal to a recount of the directory through every path that writes it —
// submit, list refresh (of a cold router too), owner probe, re-home.
func TestRouterPlacedCounters(t *testing.T) {
	dir := t.TempDir()
	alpha, tsA := newBackend(t, dir, "alpha", "tok")
	beta, tsB := newBackend(t, dir, "beta", "tok")
	backends := []Backend{{Name: "alpha", URL: tsA.URL}, {Name: "beta", URL: tsB.URL}}
	rt, tsR := newRouter(t, Config{Backends: backends, Token: "tok"})

	spec := shardSpec("sphere")
	spec.Budget = 2
	for i := 0; i < 5; i++ {
		resp := postSpec(t, tsR.URL+"/studies", "tok", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		checkPlaced(t, rt)
	}
	for _, d := range []*studyd.Daemon{alpha, beta} {
		for _, m := range d.Store().List() {
			waitStatus(t, m, studyd.StatusDone)
		}
	}
	mustGet(t, tsR.URL+"/studies")
	if got := checkPlaced(t, rt); got["alpha"]+got["beta"] != 5 || got["alpha"] == 0 || got["beta"] == 0 {
		t.Fatalf("after 5 submissions and a list: %v", got)
	}

	cold, tsCold := newRouter(t, Config{Backends: backends, Token: "tok"})
	mustGet(t, tsCold.URL+"/studies/"+beta.Store().List()[0].ID)
	if got := checkPlaced(t, cold); got["beta"] != 1 || got["alpha"] != 0 {
		t.Fatalf("after one owner probe: %v", got)
	}
	mustGet(t, tsCold.URL+"/studies")
	if got, want := checkPlaced(t, cold), checkPlaced(t, rt); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cold router after a list: %v, want %v", got, want)
	}

	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := alpha.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	report := rt.Reconcile(ctx)
	if got := checkPlaced(t, rt); got["alpha"] != 0 || got["beta"] != 5 {
		t.Fatalf("after re-homing alpha's studies: %v (report %+v)", got, report)
	}
}

// TestRouterListConcurrent is for the race detector: listings through the
// router (directory refresh, the daemons' summary memos) while studies are
// submitted through it and run.
func TestRouterListConcurrent(t *testing.T) {
	_, tsA := newBackend(t, t.TempDir(), "alpha", "")
	_, tsB := newBackend(t, t.TempDir(), "beta", "")
	rt, tsR := newRouter(t, Config{Backends: []Backend{{Name: "alpha", URL: tsA.URL}, {Name: "beta", URL: tsB.URL}}})

	const perWriter = 6
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				list, err := summaries(get(tsR.URL + "/studies"))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 1; i < len(list); i++ {
					if list[i-1].ID >= list[i].ID {
						t.Errorf("list not sorted or not unique at %q", list[i].ID)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			spec := shardSpec("sphere")
			spec.Budget, spec.Seed = 8, uint64(g)
			for i := 0; i < perWriter; i++ {
				raw, err := json.Marshal(spec)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(tsR.URL+"/studies", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				var sum studyd.Summary
				err = json.NewDecoder(resp.Body).Decode(&sum)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusCreated {
					t.Errorf("submit: %d, %v", resp.StatusCode, err)
					return
				}
				for sum.Status != studyd.StatusDone {
					body, err := get(tsR.URL + "/studies/" + sum.ID)
					if err == nil {
						err = json.Unmarshal(body, &sum)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	list := mustList(t, tsR.URL)
	if len(list) != 2*perWriter {
		t.Fatalf("%d studies listed, want %d", len(list), 2*perWriter)
	}
	for _, s := range list {
		if s.Status != studyd.StatusDone || s.Finished != 8 {
			t.Fatalf("final listing is stale: %+v", s)
		}
	}
	checkPlaced(t, rt)
}
