package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/daemon"
	"rldecide/internal/journal"
	"rldecide/internal/param"
	"rldecide/internal/studyd"
)

// ---- fixtures ----------------------------------------------------------

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// rgate throttles an objective the way the studyd crash tests do: in
// limited mode at most `limit` trials complete, the rest block on the run
// context like a long training job until the daemon dies.
type rgate struct {
	mu          sync.Mutex
	limited     bool
	limit       int
	reserved    int
	completions map[uint64]int
}

func (g *rgate) allow() bool {
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

func (g *rgate) open() {
	g.mu.Lock()
	g.limited = false
	g.mu.Unlock()
}

func (g *rgate) complete(seed uint64) {
	g.mu.Lock()
	g.completions[seed]++
	g.mu.Unlock()
}

// registerGated registers a deterministic two-metric objective (the same
// arithmetic whichever daemon evaluates it) behind g's throttle.
func registerGated(name string, g *rgate) {
	studyd.RegisterObjective(name, func(spec studyd.Spec, metrics []core.Metric) (core.Objective, error) {
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

func shardSpec(objective string) studyd.Spec {
	return studyd.Spec{
		Name: "demo",
		Params: []studyd.ParamSpec{
			{Name: "x", Type: "floatrange", Lo: -2, Hi: 2},
			{Name: "y", Type: "floatrange", Lo: -2, Hi: 2},
		},
		Explorer: studyd.ExplorerSpec{Type: "random"},
		Metrics: []studyd.MetricSpec{
			{Name: "f", Direction: "min"},
			{Name: "cost", Direction: "min"},
		},
		Objective: objective,
		Budget:    16,
		Seed:      5,
	}
}

func newBackend(t *testing.T, dir, name, token string) (*studyd.Daemon, *httptest.Server) {
	t.Helper()
	d, err := studyd.New(studyd.Config{Dir: dir, Name: name, Workers: 4, Token: token, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = d.Shutdown(context.Background())
	})
	return d, ts
}

func newRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = testLogf(t)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func postSpec(t *testing.T, url, token string, spec studyd.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitStatus(t *testing.T, m *studyd.ManagedStudy, want studyd.Status) {
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

func waitTrials(t *testing.T, m *studyd.ManagedStudy, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for len(m.Trials()) < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(m.Trials()); got < n {
		t.Fatalf("study %s reached %d trials, want %d", m.ID, got, n)
	}
}

// canonicalRecords renders a study's finished trials as sorted journal
// lines with the informational fields (worker attribution, measured
// wall-clock time) cleared — the byte-level form the determinism
// cross-check compares.
func canonicalRecords(t *testing.T, m *studyd.ManagedStudy) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, tr := range m.Trials() { // Trials() is ID-sorted
		rec := journal.FromTrial(tr)
		rec.Worker = ""
		rec.WallMs = 0
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// get fetches url and returns the body of a 200 answer.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d\n%s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes(), nil
}

// mustGet is get on the test's own goroutine.
func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	body, err := get(url)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ---- tests -------------------------------------------------------------

// TestRouterPlacementAndFanout pins the routing layer end to end against
// two live daemons: bounded-load placement spreads identical submissions,
// study reads proxy to the owner, the fleet list merges ID-sorted, and
// the metrics rollup carries daemon labels without series collisions.
func TestRouterPlacementAndFanout(t *testing.T) {
	alpha, tsA := newBackend(t, t.TempDir(), "alpha", "")
	beta, tsB := newBackend(t, t.TempDir(), "beta", "")
	_, tsR := newRouter(t, Config{Backends: []Backend{
		{Name: "alpha", URL: tsA.URL},
		{Name: "beta", URL: tsB.URL},
	}})

	spec := shardSpec("sphere")
	spec.Budget = 2

	// Three byte-identical submissions hash to one ring position; only the
	// bounded-load cap can spread them — and must.
	owners := map[string]int{}
	var ids []string
	for i := 0; i < 3; i++ {
		resp := postSpec(t, tsR.URL+"/studies", "", spec)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		var sum studyd.Summary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sum.Daemon == "" || !strings.HasPrefix(sum.ID, sum.Daemon+"-") {
			t.Fatalf("summary %q not stamped by its daemon (%q)", sum.ID, sum.Daemon)
		}
		owners[sum.Daemon]++
		ids = append(ids, sum.ID)
	}
	if len(owners) != 2 {
		t.Fatalf("3 identical submissions all landed on one daemon: %v", owners)
	}

	for _, d := range []*studyd.Daemon{alpha, beta} {
		for _, m := range d.Store().List() {
			waitStatus(t, m, studyd.StatusDone)
		}
	}

	// Fleet-wide list: every study, ID-sorted.
	var list struct {
		Studies []studyd.Summary `json:"studies"`
	}
	if err := json.Unmarshal(mustGet(t, tsR.URL+"/studies"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Studies) != 3 {
		t.Fatalf("fleet list has %d studies, want 3", len(list.Studies))
	}
	for i := 1; i < len(list.Studies); i++ {
		if list.Studies[i-1].ID >= list.Studies[i].ID {
			t.Fatalf("fleet list not ID-sorted: %v", list.Studies)
		}
	}

	// Per-study reads proxy to the owner, wherever it lives.
	for _, id := range ids {
		var sum studyd.Summary
		if err := json.Unmarshal(mustGet(t, tsR.URL+"/studies/"+id), &sum); err != nil {
			t.Fatal(err)
		}
		if sum.ID != id || sum.Status != studyd.StatusDone {
			t.Fatalf("proxied summary: %+v", sum)
		}
		// Subpaths proxy too.
		mustGet(t, tsR.URL+"/studies/"+id+"/front")
	}

	// A directory-cold router resolves owners by probing.
	rt2, tsR2 := newRouter(t, Config{Backends: []Backend{
		{Name: "alpha", URL: tsA.URL},
		{Name: "beta", URL: tsB.URL},
	}})
	_ = rt2
	var sum studyd.Summary
	if err := json.Unmarshal(mustGet(t, tsR2.URL+"/studies/"+ids[0]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.ID != ids[0] {
		t.Fatalf("cold-directory lookup returned %q", sum.ID)
	}

	// Health, workers, and the metrics rollup.
	mustGet(t, tsR.URL+"/healthz")
	mustGet(t, tsR.URL+"/workers")
	metrics := string(mustGet(t, tsR.URL+"/metrics"))
	for _, want := range []string{
		`rldecide_router_backends{state="up"} 2`,
		`rldecide_studyd_studies{daemon="alpha"`,
		`rldecide_studyd_studies{daemon="beta"`,
		`rldecide_local_trials_total{daemon="alpha"}`,
		`rldecide_router_placements{daemon=`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("rollup missing %q", want)
		}
	}
	if n := strings.Count(metrics, "# TYPE rldecide_studyd_studies gauge"); n != 1 {
		t.Errorf("rollup repeats the studies family %d times", n)
	}
}

// TestRouterBackendUnreachable pins degraded-mode behavior: a dead
// backend turns submissions into 502s and health into 503, never a hang.
func TestRouterBackendUnreachable(t *testing.T) {
	_, tsR := newRouter(t, Config{
		Backends:     []Backend{{Name: "ghost", URL: "http://127.0.0.1:1"}},
		ProbeTimeout: 500 * time.Millisecond,
	})
	resp := postSpec(t, tsR.URL+"/studies", "", shardSpec("sphere"))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("submit to dead fleet: %d, want 502", resp.StatusCode)
	}
	resp.Body.Close()
	hresp, err := http.Get(tsR.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no live backend: %d, want 503", hresp.StatusCode)
	}
}

// TestRouterRehomeAuth pins that the router's own mutating endpoint sits
// behind its bearer gate.
func TestRouterRehomeAuth(t *testing.T) {
	_, tsA := newBackend(t, t.TempDir(), "alpha", "")
	_, tsR := newRouter(t, Config{
		Backends: []Backend{{Name: "alpha", URL: tsA.URL}},
		Auth:     daemon.NewAuth("rtok", nil),
	})
	req, _ := http.NewRequest(http.MethodPost, tsR.URL+"/rehome", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated rehome: %d, want 401", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPost, tsR.URL+"/rehome", nil)
	req.Header.Set("Authorization", "Bearer rtok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var report ReconcileReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(report.Live) != 1 {
		t.Fatalf("rehome: %d %+v", resp.StatusCode, report)
	}
}

// TestShardResumeDeterminism is the PR's acceptance scenario: the same
// campaign run (A) on a single daemon, (B) through the router across two
// daemons, and (C) through the router with the owning daemon killed
// mid-campaign and the study re-homed, must produce byte-identical
// journals (modulo worker attribution and wall-clock) and the same
// Pareto front.
func TestShardResumeDeterminism(t *testing.T) {
	spec := shardSpec("")
	spec.Parallelism = 2

	// --- Scenario A: one daemon, no router. ---
	gA := &rgate{completions: map[uint64]int{}}
	registerGated("shard-det-a", gA)
	specA := spec
	specA.Objective = "shard-det-a"
	solo, _ := newBackend(t, t.TempDir(), "solo", "tok")
	mA, err := solo.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mA, studyd.StatusDone)

	// --- Scenario B: two router-fronted daemons. ---
	gB := &rgate{completions: map[uint64]int{}}
	registerGated("shard-det-b", gB)
	specB := spec
	specB.Objective = "shard-det-b"
	dirB := t.TempDir()
	alphaB, tsAB := newBackend(t, dirB, "alpha", "tok")
	betaB, tsBB := newBackend(t, dirB, "beta", "tok")
	_, tsRB := newRouter(t, Config{
		Backends: []Backend{{Name: "alpha", URL: tsAB.URL}, {Name: "beta", URL: tsBB.URL}},
		Token:    "tok",
	})
	resp := postSpec(t, tsRB.URL+"/studies", "tok", specB)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("scenario B submit: %d", resp.StatusCode)
	}
	var sumB studyd.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sumB); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ownerB := map[string]*studyd.Daemon{"alpha": alphaB, "beta": betaB}[sumB.Daemon]
	if ownerB == nil {
		t.Fatalf("scenario B placed on unknown daemon %q", sumB.Daemon)
	}
	mB, ok := ownerB.Store().Get(sumB.ID)
	if !ok {
		t.Fatal("scenario B study missing from its owner")
	}
	waitStatus(t, mB, studyd.StatusDone)

	// --- Scenario C: kill the owner mid-campaign, re-home, finish. ---
	gC := &rgate{limited: true, limit: 5, completions: map[uint64]int{}}
	registerGated("shard-det-c", gC)
	specC := spec
	specC.Objective = "shard-det-c"
	dirC := t.TempDir()
	alphaC, tsAC := newBackend(t, dirC, "alpha", "tok")
	betaC, tsBC := newBackend(t, dirC, "beta", "tok")
	rtC, tsRC := newRouter(t, Config{
		Backends: []Backend{{Name: "alpha", URL: tsAC.URL}, {Name: "beta", URL: tsBC.URL}},
		Token:    "tok",
	})
	resp = postSpec(t, tsRC.URL+"/studies", "tok", specC)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("scenario C submit: %d", resp.StatusCode)
	}
	var sumC studyd.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sumC); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	victims := map[string]struct {
		d  *studyd.Daemon
		ts *httptest.Server
	}{
		"alpha": {alphaC, tsAC},
		"beta":  {betaC, tsBC},
	}
	victim, okV := victims[sumC.Daemon]
	if !okV {
		t.Fatalf("scenario C placed on unknown daemon %q", sumC.Daemon)
	}
	survivorName := "beta"
	if sumC.Daemon == "beta" {
		survivorName = "alpha"
	}
	survivor := victims[survivorName].d

	mC1, ok := victim.d.Store().Get(sumC.ID)
	if !ok {
		t.Fatal("scenario C study missing from its owner")
	}
	waitTrials(t, mC1, 5)

	// Kill the owning daemon: its listener vanishes and its runs drain.
	victim.ts.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := victim.d.Shutdown(shutdownCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if got := mC1.Status(); got != studyd.StatusInterrupted {
		t.Fatalf("victim's study after kill: %s", got)
	}

	// Re-home through the router's reconcile pass.
	gC.open()
	report := rtC.Reconcile(context.Background())
	if got := report.Rehomed[sumC.ID]; got != survivorName {
		t.Fatalf("reconcile re-homed %q onto %q, want %q (report %+v)", sumC.ID, got, survivorName, report)
	}
	mC, ok := survivor.Store().Get(sumC.ID)
	if !ok {
		t.Fatal("survivor did not register the adopted study")
	}
	if got := mC.Summary().Resumed; got != 5 {
		t.Fatalf("adopted with %d resumed trials, want 5", got)
	}
	waitStatus(t, mC, studyd.StatusDone)

	// Reads through the router now reach the new owner.
	var sumAfter studyd.Summary
	if err := json.Unmarshal(mustGet(t, tsRC.URL+"/studies/"+sumC.ID), &sumAfter); err != nil {
		t.Fatal(err)
	}
	if sumAfter.Daemon != survivorName || sumAfter.Generation != 2 {
		t.Fatalf("post-rehome summary: %+v", sumAfter)
	}

	// No trial ran twice across the kill.
	gC.mu.Lock()
	for seed, n := range gC.completions {
		if n > 1 {
			t.Errorf("scenario C seed %d evaluated %d times", seed, n)
		}
	}
	gC.mu.Unlock()

	// --- The determinism contract. ---
	recA := canonicalRecords(t, mA)
	recB := canonicalRecords(t, mB)
	recC := canonicalRecords(t, mC)
	if !bytes.Equal(recA, recB) {
		t.Fatalf("journals diverged between single daemon and routed fleet:\nA:\n%s\nB:\n%s", recA, recB)
	}
	if !bytes.Equal(recA, recC) {
		t.Fatalf("journals diverged after kill + re-home:\nA:\n%s\nC:\n%s", recA, recC)
	}

	frontA, err := mA.Front()
	if err != nil {
		t.Fatal(err)
	}
	frontC, err := mC.Front()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(frontA.Fronts) != fmt.Sprint(frontC.Fronts) {
		t.Fatalf("Pareto fronts diverged:\nA: %v\nC: %v", frontA.Fronts, frontC.Fronts)
	}
	t.Logf("fronts agree across topologies: %v", frontA.Fronts[0])
}
