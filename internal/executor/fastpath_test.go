package executor_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rldecide/internal/executor"
	"rldecide/internal/studyd"
)

// recorder keeps every /run body that crosses the wire in one direction.
type recorder struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (r *recorder) add(b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bodies = append(r.bodies, b)
}

// resultTap is the dispatcher's transport with every 200 response body
// recorded on the way through.
type resultTap struct {
	rec  *recorder
	base http.RoundTripper
}

func (t resultTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to its end
	if err != nil {
		return nil, err
	}
	t.rec.add(body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestFleetStudyTakesTheFastPath runs a real fleet study — a daemon's
// scheduler dispatching through a Fleet to two workers evaluating with
// studyd.EvaluateRequest — and puts every body that crossed the wire to the
// dispatch decoders: every hash-only request and every result must be
// accepted. A decline here is silent in production (encoding/json takes the
// body and the answer is the same), so this count is what keeps the codec's
// saving from quietly disappearing.
func TestFleetStudyTakesTheFastPath(t *testing.T) {
	quiet := func(string, ...any) {}
	var requests, results recorder
	d, err := studyd.New(studyd.Config{
		Dir:   t.TempDir(),
		Exec:  studyd.ExecFleet,
		Fleet: executor.FleetOptions{Client: &http.Client{Transport: resultTap{rec: &results, base: http.DefaultTransport}}},
		Logf:  quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	for _, name := range []string{"w1", "w2"} {
		h := (&executor.Server{Name: name, Eval: studyd.EvaluateRequest, Logf: quiet}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
				return
			}
			requests.add(body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		if _, err := d.Fleet().Upsert(executor.WorkerInfo{Name: name, URL: ts.URL, Slots: 2}); err != nil {
			t.Fatal(err)
		}
	}

	const budget = 120
	m, err := d.Submit(studyd.Spec{
		Name: "fastpath",
		Params: []studyd.ParamSpec{
			{Name: "x0", Type: "floatrange", Lo: -5, Hi: 5},
			{Name: "x1", Type: "floatrange", Lo: -5, Hi: 5},
		},
		Explorer:    studyd.ExplorerSpec{Type: "random"},
		Metrics:     []studyd.MetricSpec{{Name: "f", Direction: "min"}, {Name: "cost", Direction: "min"}},
		Objective:   "sphere",
		Budget:      budget,
		Parallelism: 2,
		Seed:        25,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("study did not finish")
	}
	if m.Status() != studyd.StatusDone || len(m.Trials()) != budget {
		t.Fatalf("study %s with %d trials", m.Status(), len(m.Trials()))
	}

	hashOnly, declined := 0, 0
	for _, body := range requests.bodies {
		if bytes.Contains(body, []byte(`,"spec":`)) {
			continue // a full send: encoding/json's by design
		}
		hashOnly++
		var req executor.TrialRequest
		if !executor.DecodeTrialRequest(body, &req) {
			declined++
			t.Errorf("declined a hash-only request: %q", body)
		}
	}
	if hashOnly < budget-2 || declined != 0 {
		t.Fatalf("%d of %d requests hash-only, %d declined", hashOnly, len(requests.bodies), declined)
	}
	declined = 0
	for _, body := range results.bodies {
		var res executor.TrialResult
		if !executor.DecodeTrialResult(body, &res) {
			declined++
			t.Errorf("declined a result: %q", body)
		}
	}
	if len(results.bodies) != budget || declined != 0 {
		t.Fatalf("%d results for %d trials, %d declined", len(results.bodies), budget, declined)
	}
}
