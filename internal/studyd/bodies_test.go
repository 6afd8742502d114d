package studyd

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/daemon"
	"rldecide/internal/journal"
	"rldecide/internal/param"
)

// getBody is one GET of a study endpoint through the daemon's handler.
func getBody(t *testing.T, d *Daemon, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: %d %q\n%s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("GET %s: Content-Length %q on a body of %d bytes", path, got, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// wantFrontBody is daemon.WriteJSON of the study's front, ranked now.
func wantFrontBody(t *testing.T, m *ManagedStudy) []byte {
	t.Helper()
	fr, err := m.Front()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	daemon.WriteJSON(rec, http.StatusOK, fr)
	return rec.Body.Bytes()
}

// wantTrialsBody is the study's journal records, encoded now by
// journal.AppendRecord and joined by commas inside {"trials":[...]}.
func wantTrialsBody(t *testing.T, m *ManagedStudy) []byte {
	t.Helper()
	body := []byte(`{"trials":[`)
	for i, tr := range m.Trials() {
		if i > 0 {
			body = append(body, ',')
		}
		line, err := journal.AppendRecord(nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, bytes.TrimSuffix(line, []byte("\n"))...)
	}
	return append(body, "]}\n"...)
}

// TestDoneBodiesFollowStudy: /front and /trials reflect the study as it is
// now — while running, after more trials, interrupted, adopted elsewhere,
// done — and a done study's kept bodies are what a fresh render gives. The
// memo has no invalidation, so this is the test that a body kept too early
// fails (checked by making frontJSON and trialsJSON keep a body whatever
// the status: the read after the first trial then still serves the running
// study's empty front and trial list).
func TestDoneBodiesFollowStudy(t *testing.T) {
	step := make(chan struct{})
	RegisterObjective("bodies-step", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
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
	spec := baseSpec("bodies-step")
	spec.Budget, spec.Parallelism = 5, 1
	m, err := alpha.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	served := func(d *Daemon, m *ManagedStudy, trials int) {
		t.Helper()
		base := "/studies/" + m.ID
		if got, want := getBody(t, d, base+"/front"), wantFrontBody(t, m); !bytes.Equal(got, want) {
			t.Fatalf("%s front is stale:\n%s\nwant\n%s", m.Status(), got, want)
		}
		got := getBody(t, d, base+"/trials")
		if want := wantTrialsBody(t, m); !bytes.Equal(got, want) {
			t.Fatalf("%s trials are stale:\n%s\nwant\n%s", m.Status(), got, want)
		}
		if n := bytes.Count(got, []byte(`"id":`)); n != trials {
			t.Fatalf("%s study serves %d trials, want %d", m.Status(), n, trials)
		}
	}
	waitStatus(t, m, StatusRunning)
	served(alpha, m, 0)
	for n := 1; n <= 2; n++ {
		step <- struct{}{}
		for deadline := time.Now().Add(10 * time.Second); len(m.Trials()) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("trial %d never finished", n)
			}
		}
		served(alpha, m, n)
	}
	m.Cancel()
	waitStatus(t, m, StatusInterrupted)
	served(alpha, m, 2)

	beta, err := New(Config{Dir: dir, Name: "beta", Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	beta.Start()
	defer beta.Shutdown(context.Background())
	adopted, err := beta.Adopt(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, adopted, StatusRunning)
	if g := adopted.Summary().Generation; g != 2 {
		t.Fatalf("adopted at generation %d, want 2", g)
	}
	served(beta, adopted, 2)
	close(step)
	waitStatus(t, adopted, StatusDone)
	for pass := 0; pass < 2; pass++ { // rendered and kept, then served as kept
		served(beta, adopted, 5)
	}
	adopted.mu.Lock()
	kept := adopted.frontBody != nil && adopted.trialsBody != nil
	adopted.mu.Unlock()
	if !kept {
		t.Fatal("a done study's bodies were not kept after its reads")
	}
}

// TestDoneBodiesConcurrent: readers of /front and /trials across the done
// transition. A body rendered from trials copied before done must never be
// kept, so every body read once done was observed equals the final one.
// Run under -race, this is also the check that a kept body is shared
// safely.
func TestDoneBodiesConcurrent(t *testing.T) {
	gate := make(chan struct{})
	RegisterObjective("bodies-gate", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			<-gate
			rec.Report(metrics[0].Name, a.Value("x").Float())
			rec.Report(metrics[1].Name, a.Value("y").Float())
			return nil
		}, nil
	})
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	spec := baseSpec("bodies-gate")
	spec.Budget, spec.Parallelism = 40, 2
	m, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusRunning)

	const readers, afterDone = 8, 10
	read := func(path string) ([]byte, error) {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	var started, wg sync.WaitGroup
	fronts, trials := make([][][]byte, readers), make([][][]byte, readers)
	errs := make([]error, readers)
	started.Add(readers)
	wg.Add(readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer wg.Done()
			for k := 0; len(fronts[i]) < afterDone; k++ {
				done := m.Status() == StatusDone
				fr, err := read("/studies/" + m.ID + "/front")
				var tr []byte
				if err == nil {
					tr, err = read("/studies/" + m.ID + "/trials")
				}
				if k == 0 {
					started.Done()
				}
				if err != nil {
					errs[i] = err
					return
				}
				if done {
					fronts[i], trials[i] = append(fronts[i], fr), append(trials[i], tr)
				}
			}
		}(i)
	}
	started.Wait() // every reader is reading the running study
	close(gate)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	wantFront, wantTrials := wantFrontBody(t, m), wantTrialsBody(t, m)
	for i := range fronts {
		for k := range fronts[i] {
			if !bytes.Equal(fronts[i][k], wantFront) || !bytes.Equal(trials[i][k], wantTrials) {
				t.Fatalf("reader %d, read %d after done: body differs from the final one\nfront\n%s\nwant\n%s",
					i, k, fronts[i][k], wantFront)
			}
		}
	}
}

// TestDoneReadAllocsIndependentOfTrials: a repeat /front and /trials of a
// done study writes the kept bodies — no rank, no copy of the trials, no
// encode — so it costs the same handful of allocations (per read, the two
// header values and the length string: 6 for the pair) for ten trials as
// for two thousand.
func TestDoneReadAllocsIndependentOfTrials(t *testing.T) {
	allocs := func(n int) float64 {
		d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		defer d.Shutdown(context.Background())
		spec := baseSpec("sphere")
		spec.Budget, spec.Parallelism = n, 2
		m, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, StatusDone)
		w := discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, "/studies/"+m.ID, nil)
		req.SetPathValue("id", m.ID)
		front, trials := d.handleStudy(d.serveFront), d.handleStudy(d.serveTrials)
		read := func() {
			front(w, req)
			trials(w, req)
		}
		read() // the first read after done renders and keeps
		return testing.AllocsPerRun(20, read)
	}
	few, many := allocs(10), allocs(2000)
	if many > few || many > 8 {
		t.Fatalf("rereading a done study of 2000 trials: %v allocs/op, of 10 trials: %v (want equal and <= 8)", many, few)
	}
}
