package studyd

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/daemon"
	"rldecide/internal/param"
)

// fakeStudy is a study in a given state that never ran: the list only
// reads what Summary reads.
func fakeStudy(id, name string, status Status, finished int) *ManagedStudy {
	sp := baseSpec("sphere")
	sp.Name = name
	return &ManagedStudy{ID: id, Spec: sp, status: status, trials: make([]core.Trial, finished), done: make(chan struct{})}
}

func putStudy(st *Store, m *ManagedStudy) {
	st.mu.Lock()
	st.studies[m.ID] = m
	st.order = append(st.order, m)
	st.mu.Unlock()
}

// wantListBody is the list as the kernel's reflection encoder writes it,
// which is what GET /studies answered before it kept its encodings.
func wantListBody(studies []*ManagedStudy) []byte {
	sums := make([]Summary, len(studies))
	for i, m := range studies {
		sums[i] = m.Summary()
	}
	rec := httptest.NewRecorder()
	daemon.WriteJSON(rec, http.StatusOK, map[string]any{"studies": sums})
	return rec.Body.Bytes()
}

func getList(t *testing.T, d *Daemon) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/studies", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /studies: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q on a body of %d bytes", got, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// TestListMatchesWriteJSON: the body assembled from memoized element
// encodings is byte for byte the reflection encoder's, for every summary
// field and every kind of string the encoder treats specially.
func TestListMatchesWriteJSON(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(getList(t, d)), "{\n  \"studies\": []\n}\n"; got != want {
		t.Fatalf("empty list reads %q, want %q", got, want)
	}

	failed := fakeStudy("s0004", `back\slash and "quotes"`, StatusFailed, 1)
	failed.errMsg = "objective: <nil> & worse"
	owned := fakeStudy("alpha-s0005", "owned \u2028 line sep", StatusInterrupted, 7)
	owned.Tenant, owned.Daemon, owned.Generation, owned.resumed = "alice", "alpha", 3, 4
	torn := fakeStudy("s0006", "journal trouble", StatusDone, 16)
	torn.journalErr = "write s0006.trials.jsonl: no space left on device"
	for _, m := range []*ManagedStudy{
		fakeStudy("s0001", "plain", StatusPending, 0),
		fakeStudy("s0002", "<html> & co", StatusRunning, 3),
		fakeStudy("s0003", "naïve 試験 \x01 \xff", StatusDone, 16),
		failed, owned, torn,
		fakeStudy("s0007", strings.Repeat("2KB ", 512), StatusDone, 16),
	} {
		putStudy(d.store, m)
	}
	for pass := 0; pass < 2; pass++ { // encoded, then served from the memo
		if got, want := getList(t, d), wantListBody(d.store.List()); !bytes.Equal(got, want) {
			t.Fatalf("pass %d:\n%s\nwant\n%s", pass, got, want)
		}
	}
}

// TestListSettledHead: the kept start of the body follows the leading run
// of done studies in submission order. It stops at the first study not
// done, takes in the ones behind it once that one is done, and the body
// is the reflection encoder's every time.
func TestListSettledHead(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	running := fakeStudy("s0003", "running", StatusRunning, 2)
	for _, m := range []*ManagedStudy{
		fakeStudy("s0001", "done", StatusDone, 16),
		fakeStudy("s0002", "<done> & co", StatusDone, 16),
		running,
		fakeStudy("s0004", "done", StatusDone, 16),
	} {
		putStudy(d.store, m)
	}
	listed := func(settled int) {
		t.Helper()
		if got, want := getList(t, d), wantListBody(d.store.List()); !bytes.Equal(got, want) {
			t.Fatalf("list:\n%s\nwant\n%s", got, want)
		}
		d.store.listMu.Lock()
		got := d.store.listed
		d.store.listMu.Unlock()
		if got != settled {
			t.Fatalf("%d studies in the kept head, want %d", got, settled)
		}
	}
	listed(2)
	running.mu.Lock()
	running.trials = append(running.trials, core.Trial{})
	running.mu.Unlock()
	listed(2)
	running.mu.Lock()
	running.status = StatusDone
	running.mu.Unlock()
	listed(4)
	putStudy(d.store, fakeStudy("s0005", "pending", StatusPending, 0))
	putStudy(d.store, fakeStudy("s0006", "done", StatusDone, 16))
	listed(4)
}

// TestListFollowsStudy: a listing reflects the study as it is now — while
// running, after more trials, interrupted, adopted elsewhere, done. The
// memo has no invalidation hook, so this is the test that a stale one
// fails (checked by making listElement ignore the comparison: the second
// listing below then still reads "finished": 0).
func TestListFollowsStudy(t *testing.T) {
	step := make(chan struct{})
	RegisterObjective("list-step", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			select {
			case <-step:
			case <-rec.Context().Done():
				return rec.Context().Err()
			}
			rec.Report(metrics[0].Name, a.Value("x").Float())
			rec.Report(metrics[1].Name, a.Value("y").Float())
			return nil
		}, nil
	})
	dir := t.TempDir()
	alpha, err := New(Config{Dir: dir, Name: "alpha", Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	alpha.Start()
	defer alpha.Shutdown(context.Background())
	spec := baseSpec("list-step")
	spec.Budget, spec.Parallelism = 5, 1
	m, err := alpha.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	listed := func(d *Daemon, fields ...string) {
		t.Helper()
		got, want := getList(t, d), wantListBody(d.store.List())
		if !bytes.Equal(got, want) {
			t.Fatalf("list is stale:\n%s\nwant\n%s", got, want)
		}
		for _, f := range fields {
			if !bytes.Contains(got, []byte(f)) {
				t.Fatalf("list lacks %s:\n%s", f, got)
			}
		}
	}
	waitStatus(t, m, StatusRunning)
	listed(alpha, `"status": "running"`, `"finished": 0`, `"generation": 1`)
	for n := 1; n <= 2; n++ {
		step <- struct{}{}
		for deadline := time.Now().Add(10 * time.Second); len(m.Trials()) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("trial %d never finished", n)
			}
		}
		listed(alpha, `"status": "running"`, fmt.Sprintf(`"finished": %d`, n))
	}
	m.Cancel()
	waitStatus(t, m, StatusInterrupted)
	listed(alpha, `"status": "interrupted"`, `"finished": 2`)

	beta, err := New(Config{Dir: dir, Name: "beta", Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	beta.Start()
	defer beta.Shutdown(context.Background())
	listed(beta)
	adopted, err := beta.Adopt(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, adopted, StatusRunning)
	listed(beta, `"daemon": "beta"`, `"generation": 2`, `"status": "running"`, `"resumed": 2`)
	close(step)
	waitStatus(t, adopted, StatusDone)
	listed(beta, `"status": "done"`, `"finished": 5`)
}

// discardWriter is the least a handler can write to.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestListAllocsIndependentOfCount: relisting finished studies costs the
// same handful of allocations (the store's snapshot, the element table,
// the body, the length header) for ten studies as for a thousand.
func TestListAllocsIndependentOfCount(t *testing.T) {
	allocs := func(n int) float64 {
		d, err := New(Config{Dir: t.TempDir(), Logf: testLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			putStudy(d.store, fakeStudy(fmt.Sprintf("s%04d", i), "done", StatusDone, 16))
		}
		w := discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, "/studies", nil)
		d.handleList(w, req)
		return testing.AllocsPerRun(20, func() { d.handleList(w, req) })
	}
	few, many := allocs(10), allocs(1000)
	if many > few || many > 8 {
		t.Fatalf("relisting 1000 done studies: %v allocs/op, 10 studies: %v (want equal and <= 8)", many, few)
	}
}
