package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/journal"
	"rldecide/internal/param"
)

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

func baseSpec(objective string) Spec {
	return Spec{
		Name: "demo",
		Params: []ParamSpec{
			{Name: "x", Type: "floatrange", Lo: -2, Hi: 2},
			{Name: "y", Type: "floatrange", Lo: -2, Hi: 2},
		},
		Explorer: ExplorerSpec{Type: "random"},
		Metrics: []MetricSpec{
			{Name: "f", Direction: "min"},
			{Name: "cost", Direction: "min"},
		},
		Objective: objective,
		Budget:    16,
		Seed:      5,
	}
}

func TestSpecValidation(t *testing.T) {
	bad := map[string]func(*Spec){
		"no-name":       func(s *Spec) { s.Name = "" },
		"no-params":     func(s *Spec) { s.Params = nil },
		"bad-type":      func(s *Spec) { s.Params[0].Type = "nope" },
		"empty-range":   func(s *Spec) { s.Params[0].Lo, s.Params[0].Hi = 2, 1 },
		"bad-log":       func(s *Spec) { s.Params[0].Log = true },
		"no-metrics":    func(s *Spec) { s.Metrics = nil },
		"bad-direction": func(s *Spec) { s.Metrics[0].Direction = "sideways" },
		"bad-explorer":  func(s *Spec) { s.Explorer.Type = "oracle" },
		"bad-objective": func(s *Spec) { s.Objective = "nope" },
		"no-budget":     func(s *Spec) { s.Budget = 0 },
		"3-metrics": func(s *Spec) {
			s.Metrics = append(s.Metrics, MetricSpec{Name: "z", Direction: "min"})
		},
	}
	for name, mutate := range bad {
		sp := baseSpec("sphere")
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	sp := baseSpec("sphere")
	if err := sp.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	for _, ps := range []ParamSpec{
		{Name: "c", Type: "categorical", Options: []string{"a", "b"}},
		{Name: "i", Type: "intset", Ints: []int{1, 2}},
		{Name: "r", Type: "intrange", Lo: 1, Hi: 3},
		{Name: "l", Type: "floatrange", Lo: 0.001, Hi: 1, Log: true},
	} {
		sp := baseSpec("sphere")
		sp.Params = append(sp.Params, ps)
		if err := sp.Validate(); err != nil {
			t.Errorf("param %s: %v", ps.Name, err)
		}
	}
}

// TestSubmitRefusesUnrunnableSpecs: a spec that decodes but cannot run is
// refused at submission with 422, the daemon's answer to any invalid spec,
// and the daemon keeps serving. An intrange too wide for an int once
// passed and then panicked in its sampler on the run goroutine, which
// killed the daemon; unnamed or duplicate metric names were answered 201
// and the study then failed at once in core.
func TestSubmitRefusesUnrunnableSpecs(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())

	intrange := func(lo, hi float64) func(*Spec) {
		return func(s *Spec) {
			s.Params = append(s.Params, ParamSpec{Name: "n", Type: "intrange", Lo: lo, Hi: hi})
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Spec)
	}{
		{"wide-intrange", intrange(-(1 << 62), 1<<62)},
		{"int-overflowing-intrange", intrange(0, 1<<63)},
		{"fractional-intrange", intrange(0.5, 3)},
		{"unnamed-metric", func(s *Spec) { s.Metrics[1].Name = "" }},
		{"duplicate-metric", func(s *Spec) { s.Metrics[1].Name = s.Metrics[0].Name }},
	} {
		sp := baseSpec("sphere")
		tc.mutate(&sp)
		resp := postJSON(t, ts.URL+"/studies", sp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: submit answered %d, want 422", tc.name, resp.StatusCode)
		}
	}

	// Still serving: the widest intrange a float64 bound can state that
	// an int counts runs to done.
	sp := baseSpec("sphere")
	intrange(-(1 << 62), 1<<62-1024)(&sp)
	resp := postJSON(t, ts.URL+"/studies", sp)
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("good spec: submit answered %d", resp.StatusCode)
	}
	m, ok := d.Store().Get(sum.ID)
	if !ok {
		t.Fatal("submitted study not in store")
	}
	waitStatus(t, m, StatusDone)
}

// TestLoadKeepsSpecsPersistedBeforeRefusals: the refusals submission
// adds beyond loading do not stop a daemon from starting on a state
// directory that holds specs persisted without them. A fractional intrange
// bound truncates and the study runs to done; duplicate metric names load
// and the study's run fails in core. An intrange too wide for an int
// cannot be built at all: starting on it is an error naming the study, not
// a panic in its sampler once it runs.
func TestLoadKeepsSpecsPersistedBeforeRefusals(t *testing.T) {
	persist := func(dir, id string, sp Spec) {
		t.Helper()
		raw, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	fractional := baseSpec("sphere")
	fractional.Params = append(fractional.Params, ParamSpec{Name: "n", Type: "intrange", Lo: 0.5, Hi: 3})
	persist(dir, "s0001", fractional)
	duplicate := baseSpec("sphere")
	duplicate.Metrics[1].Name = duplicate.Metrics[0].Name
	persist(dir, "s0002", duplicate)

	d, err := New(Config{Dir: dir, Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("starting on persisted specs: %v", err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	for id, want := range map[string]Status{"s0001": StatusDone, "s0002": StatusFailed} {
		m, ok := d.Store().Get(id)
		if !ok {
			t.Fatalf("study %s not loaded", id)
		}
		waitStatus(t, m, want)
	}
	m, _ := d.Store().Get("s0001")
	for _, tr := range m.Trials() {
		if n := tr.Params.Value("n").Int(); n < 0 || n > 3 {
			t.Fatalf("trial %d: n = %d outside the truncated range [0, 3]", tr.ID, n)
		}
	}

	wide := t.TempDir()
	tooWide := baseSpec("sphere")
	tooWide.Params = append(tooWide.Params, ParamSpec{Name: "n", Type: "intrange", Lo: -(1 << 62), Hi: 1 << 62})
	persist(wide, "s0001", tooWide)
	if _, err := New(Config{Dir: wide, Workers: 2, Logf: testLogf(t)}); err == nil || !strings.Contains(err.Error(), "s0001") {
		t.Fatalf("starting on a too-wide intrange: err = %v, want one naming s0001", err)
	}
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func waitStatus(t *testing.T, m *ManagedStudy, want Status) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if m.Status() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("study %s stuck in %s, want %s", m.ID, m.Status(), want)
}

func TestSubmitRunServeHTTP(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Workers: 4, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())

	var health struct {
		OK   bool `json:"ok"`
		Pool struct{ Cap, InUse int }
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: %d %+v", code, health)
	}

	sp := baseSpec("sphere")
	sp.Parallelism = 3
	resp := postJSON(t, ts.URL+"/studies", sp)
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sum.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sum)
	}

	m, ok := d.Store().Get(sum.ID)
	if !ok {
		t.Fatal("submitted study not in store")
	}
	waitStatus(t, m, StatusDone)

	var got Summary
	if code := getJSON(t, ts.URL+"/studies/"+sum.ID, &got); code != http.StatusOK {
		t.Fatalf("study: %d", code)
	}
	if got.Finished != 16 || got.Status != StatusDone {
		t.Fatalf("summary: %+v", got)
	}

	var trials struct {
		Trials []journal.Record `json:"trials"`
	}
	if code := getJSON(t, ts.URL+"/studies/"+sum.ID+"/trials", &trials); code != http.StatusOK {
		t.Fatalf("trials: %d", code)
	}
	if len(trials.Trials) != 16 {
		t.Fatalf("trials served: %d", len(trials.Trials))
	}
	for i, r := range trials.Trials {
		if r.ID != i+1 {
			t.Fatalf("trials not in ID order: %d at %d", r.ID, i)
		}
	}

	var front Front
	if code := getJSON(t, ts.URL+"/studies/"+sum.ID+"/front", &front); code != http.StatusOK {
		t.Fatalf("front: %d", code)
	}
	if front.Completed != 16 || len(front.Fronts) == 0 || len(front.Fronts[0]) == 0 {
		t.Fatalf("front: %+v", front)
	}

	var list struct {
		Studies []Summary `json:"studies"`
	}
	if code := getJSON(t, ts.URL+"/studies", &list); code != http.StatusOK || len(list.Studies) != 1 {
		t.Fatalf("list: %d %+v", code, list)
	}

	if code := getJSON(t, ts.URL+"/studies/nope", nil); code != http.StatusNotFound {
		t.Fatalf("missing study: %d", code)
	}
	resp = postJSON(t, ts.URL+"/studies", map[string]any{"name": "bad"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/studies", map[string]any{"bogus_field": 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
}

// TestFrontPartitionsCompleted: Front ranks m.trials as they completed
// (unsorted under parallelism), which must give what ranking the ID-sorted
// Trials() gives, and — with the ε-widened first front too — list every
// completed trial in exactly one front, IDs ascending.
func TestFrontPartitionsCompleted(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Workers: 4, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	for _, eps := range []float64{0, 0.05} {
		sp := baseSpec("sphere")
		sp.Budget, sp.Parallelism, sp.Eps = 120, 4, eps
		m, err := d.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, StatusDone)
		front, err := m.Front()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for k, ids := range front.Fronts {
			if len(ids) == 0 || !sort.IntsAreSorted(ids) {
				t.Fatalf("eps %v: front %d = %v", eps, k, ids)
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("eps %v: trial %d is in two fronts", eps, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != front.Completed || front.Completed != sp.Budget {
			t.Fatalf("eps %v: fronts cover %d trials, completed %d of %d", eps, len(seen), front.Completed, sp.Budget)
		}
		metrics, err := sp.metrics()
		if err != nil {
			t.Fatal(err)
		}
		sorted := m.Trials()
		for k, idx := range (core.ParetoRanker{Eps: eps}).Rank(sorted, metrics).Fronts {
			want := make([]int, len(idx))
			for j, i := range idx {
				want[j] = sorted[i].ID
			}
			if !slices.Equal(front.Fronts[k], want) {
				t.Fatalf("eps %v: front %d = %v, ranking the sorted trials gives %v", eps, k, front.Fronts[k], want)
			}
		}
	}
}

// TestPoolBoundsConcurrency submits two eager studies and checks the
// shared pool keeps total concurrent trials at its cap.
func TestPoolBoundsConcurrency(t *testing.T) {
	var mu sync.Mutex
	cur, peak := 0, 0
	RegisterObjective("pool-probe", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			rec.Report(metrics[0].Name, a.Value("x").Float())
			rec.Report(metrics[1].Name, 0)
			return nil
		}, nil
	})

	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())

	var studies []*ManagedStudy
	for i := 0; i < 2; i++ {
		sp := baseSpec("pool-probe")
		sp.Name = fmt.Sprintf("probe-%d", i)
		sp.Budget = 8
		sp.Parallelism = 4
		sp.Seed = uint64(i + 1)
		m, err := d.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		studies = append(studies, m)
	}
	for _, m := range studies {
		waitStatus(t, m, StatusDone)
	}
	if peak > 2 {
		t.Fatalf("pool leaked concurrency: peak %d > cap 2", peak)
	}
	if peak < 2 {
		t.Logf("note: peak concurrency only %d", peak)
	}
}

// gate throttles an objective for the crash-resume test: in limited mode
// at most `limit` trials are allowed to complete; the rest block on the
// run context like a long training job and get discarded on shutdown.
type gate struct {
	mu          sync.Mutex
	limited     bool
	limit       int
	reserved    int
	completions map[uint64]int
}

func (g *gate) allow() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.limited {
		return true
	}
	if g.reserved >= g.limit {
		return false
	}
	g.reserved++
	return true
}

func (g *gate) open() {
	g.mu.Lock()
	g.limited = false
	g.mu.Unlock()
}

func (g *gate) complete(seed uint64) {
	g.mu.Lock()
	g.completions[seed]++
	g.mu.Unlock()
}

func registerGated(name string, g *gate) {
	RegisterObjective(name, func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			if !g.allow() {
				<-rec.Context().Done()
				return rec.Context().Err()
			}
			x, y := a.Value("x").Float(), a.Value("y").Float()
			rec.Report(metrics[0].Name, x*x+y*y)
			rec.Report(metrics[1].Name, 2*x+0.5*y)
			g.complete(seed)
			return nil
		}, nil
	})
}

// TestDaemonCrashResume is the acceptance scenario: start a study over
// HTTP, kill the daemon mid-campaign, restart it on the same state
// directory, and require (a) the campaign completes, (b) no journaled
// trial is re-executed, and (c) the final Pareto front is identical to an
// uninterrupted run with the same seed.
func TestDaemonCrashResume(t *testing.T) {
	dir := t.TempDir()
	g := &gate{limited: true, limit: 6, completions: map[uint64]int{}}
	registerGated("crash-e2e", g)

	// Phase A: first daemon lifetime — accept the study over HTTP and let
	// exactly 6 trials finish while later ones hang like real training.
	d1, err := New(Config{Dir: dir, Workers: 4, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	ts := httptest.NewServer(d1.Handler())

	sp := baseSpec("crash-e2e")
	sp.Parallelism = 2
	resp := postJSON(t, ts.URL+"/studies", sp)
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	m1, _ := d1.Store().Get(sum.ID)
	deadline := time.Now().Add(20 * time.Second)
	for len(m1.Trials()) < 6 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := len(m1.Trials()); n != 6 {
		t.Fatalf("phase A finished %d trials, want 6", n)
	}

	// Kill the daemon mid-campaign: cancel its context and drain.
	ts.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := d1.Shutdown(shutdownCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if got := m1.Status(); got != StatusInterrupted {
		t.Fatalf("after shutdown: %s, want %s", got, StatusInterrupted)
	}

	// Simulate the torn append of a harder crash: the resume path must
	// repair it away without losing the 6 intact records.
	jp := filepath.Join(dir, sum.ID+".trials.jsonl")
	if err := appendBytes(jp, []byte(`{"id":99,"params":{"x":`)); err != nil {
		t.Fatal(err)
	}

	// Phase B: second daemon lifetime on the same directory.
	g.open()
	d2, err := New(Config{Dir: dir, Workers: 4, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := d2.Store().Get(sum.ID)
	if !ok {
		t.Fatal("restarted daemon lost the study")
	}
	if got := m2.Summary().Resumed; got != 6 {
		t.Fatalf("resumed %d trials from journal, want 6", got)
	}
	d2.Start()
	waitStatus(t, m2, StatusDone)
	defer d2.Shutdown(context.Background())

	finalTrials := m2.Trials()
	if len(finalTrials) != sp.Budget {
		t.Fatalf("campaign finished with %d/%d trials", len(finalTrials), sp.Budget)
	}
	seen := map[int]bool{}
	for _, tr := range finalTrials {
		if seen[tr.ID] {
			t.Fatalf("trial %d present twice", tr.ID)
		}
		seen[tr.ID] = true
	}
	for id := 1; id <= sp.Budget; id++ {
		if !seen[id] {
			t.Fatalf("trial %d missing after resume", id)
		}
	}
	// (b) no trial executed more than once across both daemon lifetimes.
	g.mu.Lock()
	for seed, n := range g.completions {
		if n != 1 {
			g.mu.Unlock()
			t.Fatalf("trial seed %d executed %d times", seed, n)
		}
	}
	total := len(g.completions)
	g.mu.Unlock()
	if total != sp.Budget {
		t.Fatalf("distinct executions %d, want %d", total, sp.Budget)
	}

	// (c) identical outcome to an uninterrupted run with the same seed.
	ref := &gate{completions: map[uint64]int{}}
	registerGated("crash-e2e-ref", ref)
	refSpec := sp
	refSpec.Objective = "crash-e2e-ref"
	d3, err := New(Config{Dir: t.TempDir(), Workers: 4, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d3.Start()
	m3, err := d3.Submit(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m3, StatusDone)
	defer d3.Shutdown(context.Background())

	refTrials := m3.Trials()
	if len(refTrials) != len(finalTrials) {
		t.Fatalf("trial counts differ: %d vs %d", len(finalTrials), len(refTrials))
	}
	for i := range refTrials {
		a, b := finalTrials[i], refTrials[i]
		if a.ID != b.ID || a.Seed != b.Seed || a.Params.Key() != b.Params.Key() {
			t.Fatalf("trial %d diverged from uninterrupted run:\n%v\n%v", a.ID, a.Params, b.Params)
		}
		for _, mv := range b.Values {
			if a.Values.At(mv.Name) != mv.V {
				t.Fatalf("trial %d metric %s: %v vs %v", a.ID, mv.Name, a.Values.At(mv.Name), mv.V)
			}
		}
	}
	frontA, err := m2.Front()
	if err != nil {
		t.Fatal(err)
	}
	frontB, err := m3.Front()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(frontA.Fronts) != fmt.Sprint(frontB.Fronts) {
		t.Fatalf("Pareto fronts diverged:\nresumed:       %v\nuninterrupted: %v", frontA.Fronts, frontB.Fronts)
	}
	t.Logf("resumed front matches uninterrupted front: %v", frontA.Fronts[0])
}

func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestUnresolvableLastRecordIsLoadError: a journal whose last line is
// whole JSON naming a parameter the spec lacks, or holding a value it
// cannot take, is not a crash tail. Loading fails, the error is not
// journal.ErrTruncated, and the journal is left byte for byte as it was,
// whether the line is in the writer's own form or needs encoding/json.
func TestUnresolvableLastRecordIsLoadError(t *testing.T) {
	for name, last := range map[string]string{
		"fast/unknown":      `{"id":2,"params":{"x":"0.5","z":"1"},"values":{"cost":1,"f":1},"seed":7}`,
		"fast/unparsable":   `{"id":2,"params":{"x":"abc","y":"0.5"},"values":{"cost":1,"f":1},"seed":7}`,
		"json/unknown":      `{"id": 2, "params": {"x": "0.5", "z": "1"}, "seed": 7}`,
		"json/unparsable":   `{"seed":7,"id":2,"params":{"x":"abc","y":"0.5"}}`,
		"json/out-of-range": `{"params":{"x":"3","y":"0.5"},"id":2,"seed":7}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			m, err := st.Submit(baseSpec("sphere"), "")
			if err != nil {
				t.Fatal(err)
			}
			first := core.Trial{ID: 1, Seed: 3, Params: param.Assign(param.Bind("x", param.Float(0.25)), param.Bind("y", param.Float(-1)))}
			first.Values.Set("f", 1.0625)
			first.Values.Set("cost", 1.25)
			journalBytes, err := journal.AppendRecord(nil, first)
			if err != nil {
				t.Fatal(err)
			}
			journalBytes = append(journalBytes, last+"\n"...)
			if err := os.WriteFile(m.journalPath, journalBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = OpenStore(dir, "", 0)
			if err == nil || errors.Is(err, journal.ErrTruncated) {
				t.Fatalf("load error %v, want a resolution error", err)
			}
			if got, _ := os.ReadFile(m.journalPath); !bytes.Equal(got, journalBytes) {
				t.Fatalf("journal changed by the failed load:\n%q\nwas\n%q", got, journalBytes)
			}
		})
	}
}

// TestStoreLoadMarksCompletedDone ensures finished campaigns are not
// re-run on restart.
func TestStoreLoadMarksCompletedDone(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(Config{Dir: dir, Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	sp := baseSpec("sphere")
	sp.Budget = 4
	m, err := d1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)
	if err := d1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{Dir: dir, Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := d2.Store().Get(m.ID)
	if !ok {
		t.Fatal("study lost")
	}
	if m2.Status() != StatusDone {
		t.Fatalf("completed study reloaded as %s", m2.Status())
	}
	if len(d2.Store().Resumable()) != 0 {
		t.Fatal("done study offered for resume")
	}
	select {
	case <-m2.Done():
	default:
		t.Fatal("done study's Done channel must be closed on load")
	}
}

// TestReopenListsInSubmissionOrder: a reopened store lists the studies one
// daemon minted in the order it minted them, past s9999 too, as the live
// store did; IDs with a daemon's prefix, from a named daemon or adopted
// from one, come after the unprefixed ones, grouped by that daemon's name.
func TestReopenListsInSubmissionOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Submit(baseSpec("sphere"), "")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := os.ReadFile(filepath.Join(dir, m.ID+".spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(want string, ids ...string) *Store {
		t.Helper()
		for _, id := range ids {
			if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), spec, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := OpenStore(dir, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, m := range st.List() {
			listed = append(listed, m.ID)
		}
		if got := fmt.Sprint(listed); got != want {
			t.Fatalf("reopened store lists %s, want %s", got, want)
		}
		return st
	}
	st = reopen("[s0001 s9999 s10000]", "s9999", "s10000")
	next, err := st.Submit(baseSpec("sphere"), "")
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "s10001" {
		t.Fatalf("next study minted as %s, want s10001", next.ID)
	}
	reopen("[s0001 s9999 s10000 s10001 alpha-s0002 alpha-s9999 alpha-s10000 beta-s0001]",
		"beta-s0001", "alpha-s10000", "alpha-s0002", "alpha-s9999")
}

// TestReopenAdoptsStraySegment: a daemon restarted after a crash between a
// rotation's rename and its manifest rewrite replays the sealed segment
// the manifest lacks, taken from the one listing of the state directory,
// and no other study's segments.
func TestReopenAdoptsStraySegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Name: "alpha", Workers: 2, JournalMaxBytes: 300, Logf: testLogf(t)}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	var want [][]core.Trial
	var studies []*ManagedStudy
	for i := 0; i < 2; i++ {
		sp := baseSpec("sphere")
		sp.Budget, sp.Seed = 12, uint64(i+1)
		m, err := d.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, StatusDone)
		studies = append(studies, m)
		want = append(want, m.Trials())
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, studies[0].ID+".trials.jsonl")
	mf, ok, err := journal.LoadManifest(jp)
	if err != nil || !ok || len(mf.Segments) < 2 {
		t.Fatalf("need >= 2 sealed segments: %v %v %v", mf.Segments, ok, err)
	}
	mf.Segments = mf.Segments[:len(mf.Segments)-1]
	if err := journal.SaveManifest(jp, mf); err != nil {
		t.Fatal(err)
	}

	d, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	for i, m := range studies {
		r, ok := d.Store().Get(m.ID)
		if !ok {
			t.Fatalf("study %s not reloaded", m.ID)
		}
		if got := r.Trials(); r.Status() != StatusDone || !slices.EqualFunc(got, want[i], func(a, b core.Trial) bool {
			return a.ID == b.ID && a.Seed == b.Seed
		}) {
			t.Fatalf("study %s reloaded %s with %d trials, want done with %d", m.ID, r.Status(), len(got), len(want[i]))
		}
	}
}

func TestCancelEndpointLeavesStudyResumable(t *testing.T) {
	var blockMu sync.Mutex
	blocked := 0
	RegisterObjective("cancel-probe", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			blockMu.Lock()
			blocked++
			blockMu.Unlock()
			<-rec.Context().Done()
			return rec.Context().Err()
		}, nil
	})
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())

	sp := baseSpec("cancel-probe")
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		blockMu.Lock()
		n := blocked
		blockMu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/studies/"+m.ID+"/cancel", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	waitStatus(t, m, StatusInterrupted)
	if !strings.HasPrefix(m.ID, "s") {
		t.Fatalf("unexpected id %s", m.ID)
	}
}

// TestExplorerEdgeSpecsRunToDone: explorer settings a spec may carry must
// not panic on the run goroutine, which has no recover: the panic would end
// the daemon, and a restart would resume the study into it again.
func TestExplorerEdgeSpecsRunToDone(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	// A gamma above 1 asks TPE for more good trials than there are.
	tpe := baseSpec("sphere")
	tpe.Explorer = ExplorerSpec{Type: "tpe", Gamma: 2, MinTrials: 2}
	// A grid over 2^60+1 integers, of which the budget takes three.
	grid := baseSpec("sphere")
	grid.Params = []ParamSpec{{Name: "n", Type: "intrange", Lo: 0, Hi: 1 << 60}}
	grid.Explorer = ExplorerSpec{Type: "grid"}
	grid.Budget = 3

	var studies []*ManagedStudy
	for _, sp := range []Spec{tpe, grid} {
		m, err := d.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		studies = append(studies, m)
	}
	for _, m := range studies {
		waitStatus(t, m, StatusDone)
	}
	for i, tr := range studies[1].Trials() {
		if n := tr.Params.Value("n").Int(); n != i {
			t.Fatalf("grid trial %d proposed n = %d, want %d", tr.ID, n, i)
		}
	}
}
