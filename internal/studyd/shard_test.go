package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/journal"
)

// postJSONAuth posts v with a bearer token and returns the decoded status.
func postJSONAuth(t *testing.T, url, token string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
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

// TestTenantQuota pins the per-tenant slot quota: a tenant at its cap of
// active studies gets 429 until one finishes; other tenants are
// unaffected; the occupancy gauge reflects the counts.
func TestTenantQuota(t *testing.T) {
	g := &gate{limited: true, limit: 0, completions: map[uint64]int{}}
	registerGated("quota-probe", g)

	tenants, err := daemon.ParseTenants("alice=tok-a:1,bob=tok-b:2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Dir:     t.TempDir(),
		Workers: 2,
		Auth:    daemon.NewAuth("", tenants),
		Logf:    testLogf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	spec := baseSpec("quota-probe")
	spec.Budget = 1

	// Alice's first study occupies her single slot (the gated objective
	// blocks, keeping it running).
	resp := postJSONAuth(t, srv.URL+"/studies", "tok-a", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	var first Summary
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if first.Tenant != "alice" {
		t.Fatalf("summary tenant %q, want alice", first.Tenant)
	}

	// Second submission: over quota, 429.
	resp = postJSONAuth(t, srv.URL+"/studies", "tok-a", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// Bob has his own quota.
	resp = postJSONAuth(t, srv.URL+"/studies", "tok-b", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob submit: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// No token at all: 401, not quota.
	resp = postJSONAuth(t, srv.URL+"/studies", "", spec)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous submit: %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// The occupancy gauge sees both tenants.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, want := range []string{
		`rldecide_studyd_tenant_active_studies{tenant="alice"} 1`,
		`rldecide_studyd_tenant_active_studies{tenant="bob"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Freeing Alice's slot (here by cancelling; completion works the same
	// way — quota counts only pending/running studies) readmits her.
	m, ok := d.Store().Get(first.ID)
	if !ok {
		t.Fatal("study vanished")
	}
	m.Cancel()
	waitStatus(t, m, StatusInterrupted)
	resp = postJSONAuth(t, srv.URL+"/studies", "tok-a", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-cancel submit: %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestNamedDaemonsShareDir pins the sharded-store contract: two named
// daemons on one state directory mint non-colliding prefixed IDs, load
// only their own studies back, and expose daemon-labeled metric series.
func TestNamedDaemonsShareDir(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) *Daemon {
		d, err := New(Config{Dir: dir, Name: name, Workers: 1, Logf: testLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	alpha, beta := mk("alpha"), mk("beta")

	spec := baseSpec("sphere")
	spec.Budget = 2
	ma, err := alpha.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := beta.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ma.ID != "alpha-s0001" || mb.ID != "beta-s0001" {
		t.Fatalf("prefixed IDs: %q %q", ma.ID, mb.ID)
	}
	waitStatus(t, ma, StatusDone)
	waitStatus(t, mb, StatusDone)

	// Ownership manifests landed.
	mf, ok, err := journal.LoadManifest(ma.journalPath)
	if err != nil || !ok {
		t.Fatalf("alpha manifest: %v %v", ok, err)
	}
	if mf.Daemon != "alpha" || mf.Generation != 1 {
		t.Fatalf("alpha manifest: %+v", mf)
	}

	// A restarted alpha loads only its own study.
	alpha2 := mk("alpha")
	ids := []string{}
	for _, m := range alpha2.Store().List() {
		ids = append(ids, m.ID)
	}
	if len(ids) != 1 || ids[0] != "alpha-s0001" {
		t.Fatalf("alpha reload sees %v, want [alpha-s0001]", ids)
	}

	// Metric series carry the daemon label.
	srv := httptest.NewServer(alpha.Handler())
	defer srv.Close()
	var buf bytes.Buffer
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), `rldecide_studyd_studies{daemon="alpha",status="done"}`) {
		t.Errorf("metrics missing daemon label:\n%s", buf.String())
	}
}

// TestAdoptRehomesStudy pins the handoff protocol at the studyd level: a
// study stranded by a dead daemon is adopted by a peer (generation
// bumped), resumes from the journal, and completes without re-running
// journaled trials.
func TestAdoptRehomesStudy(t *testing.T) {
	dir := t.TempDir()
	g := &gate{limited: true, limit: 3, completions: map[uint64]int{}}
	registerGated("adopt-e2e", g)

	alpha, err := New(Config{Dir: dir, Name: "alpha", Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	spec := baseSpec("adopt-e2e")
	spec.Budget = 8
	m, err := alpha.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the gate's 3 trials finish, then cancel (simulating the daemon
	// dying mid-campaign with 3 journaled trials).
	for len(m.Trials()) < 3 {
		time.Sleep(2 * time.Millisecond)
	}
	m.Cancel()
	waitStatus(t, m, StatusInterrupted)

	// Beta adopts over HTTP, exactly as the router would.
	g.open()
	beta, err := New(Config{Dir: dir, Name: "beta", Workers: 1, Token: "tok", Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(beta.Store().List()) != 0 {
		t.Fatal("beta must not load alpha's study before adoption")
	}
	srv := httptest.NewServer(beta.Handler())
	defer srv.Close()

	resp := postJSONAuth(t, srv.URL+"/studies/"+m.ID+"/adopt", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated adopt: %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSONAuth(t, srv.URL+"/studies/"+m.ID+"/adopt", "tok", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt: %d", resp.StatusCode)
	}
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Daemon != "beta" || sum.Generation != 2 {
		t.Fatalf("adopted summary: %+v", sum)
	}
	if sum.Resumed != 3 {
		t.Fatalf("adopted with %d resumed trials, want 3", sum.Resumed)
	}

	adopted, ok := beta.Store().Get(m.ID)
	if !ok {
		t.Fatal("adopted study not registered")
	}
	waitStatus(t, adopted, StatusDone)
	if got := len(adopted.Trials()); got != spec.Budget {
		t.Fatalf("adopted study finished %d trials, want %d", got, spec.Budget)
	}

	// Adopt is idempotent.
	resp = postJSONAuth(t, srv.URL+"/studies/"+m.ID+"/adopt", "tok", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-adopt: %d", resp.StatusCode)
	}
	resp.Body.Close()
	mf, _, err := journal.LoadManifest(adopted.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Generation != 2 {
		t.Fatalf("re-adopt bumped generation to %d", mf.Generation)
	}

	// No journaled trial ran twice.
	g.mu.Lock()
	defer g.mu.Unlock()
	for seed, n := range g.completions {
		if n > 1 {
			t.Errorf("seed %d evaluated %d times", seed, n)
		}
	}

	// A restarted alpha no longer owns the study.
	alpha2, err := New(Config{Dir: dir, Name: "alpha", Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(alpha2.Store().List()) != 0 {
		t.Fatal("alpha still loads the study beta adopted")
	}
}

// TestAdoptRacesShutdown: an adopt racing Shutdown is either refused or
// has its runner drained by it — never a runner started against the state
// directory after Shutdown reported a clean drain.
func TestAdoptRacesShutdown(t *testing.T) {
	spec := baseSpec("sphere")
	spec.Budget = 1
	quiet := func(string, ...any) {} // a runner started after the drain outlives the test
	for round := 0; round < 100; round++ {
		dir := t.TempDir()
		st, err := OpenStore(dir, "alpha", 0)
		if err != nil {
			t.Fatal(err)
		}
		stranded, err := st.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		beta, err := New(Config{Dir: dir, Name: "beta", Workers: 1, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		type adoption struct {
			m   *ManagedStudy
			err error
		}
		adopted := make(chan adoption, 1)
		go func() {
			m, err := beta.Adopt(stranded.ID)
			adopted <- adoption{m, err}
		}()
		// Staggered across rounds, so that Shutdown lands before, inside and
		// after the adopt's manifest rewrite and journal replay.
		time.Sleep(time.Duration(round%20) * 25 * time.Microsecond)
		if err := beta.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		a := <-adopted
		if a.err != nil {
			if !strings.Contains(a.err.Error(), "shutting down") {
				t.Fatalf("round %d: adopt: %v", round, a.err)
			}
			continue
		}
		select {
		case <-a.m.Done():
		default:
			t.Fatalf("round %d: Shutdown drained cleanly before the adopted study's runner finished", round)
		}
	}
}
