package executor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/power"
)

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// echoEval answers with a value derived only from the request — the pure
// function the determinism contract demands.
func echoEval(ctx context.Context, req TrialRequest) (TrialResult, error) {
	return TrialResult{
		StudyID: req.StudyID,
		TrialID: req.TrialID,
		Values:  map[string]float64{"f": float64(req.Seed)},
	}, nil
}

func req(id int) TrialRequest {
	return TrialRequest{StudyID: "s0001", TrialID: id, Seed: uint64(id) * 10, Spec: json.RawMessage(`{}`)}
}

func TestLocalBoundsConcurrency(t *testing.T) {
	var mu sync.Mutex
	cur, peak := 0, 0
	slow := func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(3 * time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
		return echoEval(ctx, r)
	}
	l := NewLocal(2, slow)
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res, err := l.Run(context.Background(), req(id))
			if err != nil {
				t.Errorf("trial %d: %v", id, err)
				return
			}
			if res.Worker != LocalWorkerName {
				t.Errorf("trial %d attributed to %q", id, res.Worker)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("local executor leaked concurrency: peak %d > 2 slots", peak)
	}
	if s := l.Stats(); s.Cap != 2 || s.InUse != 0 || s.Workers != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLocalCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		select {
		case <-release:
			return echoEval(ctx, r)
		case <-ctx.Done():
			return TrialResult{}, ctx.Err()
		}
	}
	l := NewLocal(1, blocking)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, _ = l.Run(ctx, req(1)) // occupies the only slot
	}()
	for l.Stats().InUse == 0 {
		time.Sleep(time.Millisecond)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := l.Run(ctx, req(2)) // queued behind trial 1
		errc <- err
	}()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("queued trial returned %v, want context.Canceled", err)
	}
	close(release)
}

// startWorker spins an in-process worker daemon and returns it with its
// registration info.
func startWorker(t *testing.T, name string, slots int, eval EvalFunc, token string) (*httptest.Server, WorkerInfo) {
	t.Helper()
	ws := &Server{Name: name, Eval: eval, Token: token, Logf: testLogf(t)}
	ts := httptest.NewServer(ws.Handler())
	t.Cleanup(ts.Close)
	return ts, WorkerInfo{Name: name, URL: ts.URL, Slots: slots}
}

func TestFleetDispatchesAndAttributes(t *testing.T) {
	f := NewFleet(FleetOptions{Logf: testLogf(t)})
	_, w1 := startWorker(t, "w1", 2, echoEval, "")
	_, w2 := startWorker(t, "w2", 2, echoEval, "")
	for _, w := range []WorkerInfo{w1, w2} {
		if fresh, err := f.Upsert(w); err != nil || !fresh {
			t.Fatalf("upsert %s: fresh=%v err=%v", w.Name, fresh, err)
		}
	}
	if s := f.Stats(); s.Cap != 4 || s.Workers != 2 {
		t.Fatalf("stats: %+v", s)
	}
	byWorker := map[string]int{}
	for i := 1; i <= 12; i++ {
		res, err := f.Run(context.Background(), req(i))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res.Values["f"] != float64(i)*10 {
			t.Fatalf("trial %d value %v", i, res.Values["f"])
		}
		byWorker[res.Worker]++
	}
	if byWorker["w1"]+byWorker["w2"] != 12 {
		t.Fatalf("attribution: %v", byWorker)
	}
	ws := f.Workers()
	if len(ws) != 2 || ws[0].Name != "w1" || ws[1].Name != "w2" {
		t.Fatalf("workers: %+v", ws)
	}
	if ws[0].Completed+ws[1].Completed != 12 {
		t.Fatalf("completion counters: %+v", ws)
	}
}

func TestFleetBlocksUntilWorkerRegisters(t *testing.T) {
	f := NewFleet(FleetOptions{Logf: testLogf(t)})
	done := make(chan TrialResult, 1)
	go func() {
		res, err := f.Run(context.Background(), req(1))
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- res
	}()
	select {
	case <-done:
		t.Fatal("trial ran with no workers registered")
	case <-time.After(20 * time.Millisecond):
	}
	_, w := startWorker(t, "late", 1, echoEval, "")
	if _, err := f.Upsert(w); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.Worker != "late" {
			t.Fatalf("attribution: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trial never dispatched after registration")
	}
}

// TestFleetFailoverOnWorkerDeath kills a worker's connections mid-trial
// (the kill -9 signature) and requires the trial to be requeued onto the
// surviving worker with an identical result.
func TestFleetFailoverOnWorkerDeath(t *testing.T) {
	var dead atomic.Bool
	var doomedCalls atomic.Int32
	doomedSrv, doomed := startWorker(t, "doomed", 1, func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		doomedCalls.Add(1)
		if dead.Load() {
			<-ctx.Done() // a killed process answers nothing
			return TrialResult{}, ctx.Err()
		}
		return echoEval(ctx, r)
	}, "")
	_, survivor := startWorker(t, "survivor", 1, echoEval, "")

	f := NewFleet(FleetOptions{
		AttemptTimeout: 200 * time.Millisecond,
		Backoff:        5 * time.Millisecond,
		Logf:           testLogf(t),
	})
	if _, err := f.Upsert(doomed); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background(), req(1))
	if err != nil || res.Worker != "doomed" {
		t.Fatalf("warmup trial: %+v %v", res, err)
	}

	// Kill: the worker stops answering and its connections die.
	dead.Store(true)
	doomedSrv.CloseClientConnections()
	if _, err := f.Upsert(survivor); err != nil {
		t.Fatal(err)
	}

	res, err = f.Run(context.Background(), req(2))
	if err != nil {
		t.Fatalf("failover trial: %v", err)
	}
	if res.Worker != "survivor" || res.Values["f"] != 20 {
		t.Fatalf("failover result: %+v", res)
	}
	// The dead worker is out of the fleet until it heartbeats again.
	for _, w := range f.Workers() {
		if w.Name == "doomed" {
			t.Fatalf("dead worker still in fleet: %+v", w)
		}
	}
	// A heartbeat re-admits it.
	dead.Store(false)
	if fresh, err := f.Upsert(doomed); err != nil || !fresh {
		t.Fatalf("re-admission: fresh=%v err=%v", fresh, err)
	}
	if s := f.Stats(); s.Workers != 2 {
		t.Fatalf("stats after re-admission: %+v", s)
	}
}

func TestFleetGivesUpAfterMaxAttempts(t *testing.T) {
	_, w := startWorker(t, "broken", 1, func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		return TrialResult{}, fmt.Errorf("disk on fire")
	}, "")
	f := NewFleet(FleetOptions{MaxAttempts: 2, Backoff: time.Millisecond, Logf: testLogf(t)})
	attempts := 0
	go func() {
		// Re-admit the broken worker after each drop so Run can retry it.
		for i := 0; i < 3; i++ {
			_, _ = f.Upsert(w)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := f.Upsert(w); err != nil {
		t.Fatal(err)
	}
	_, err := f.Run(context.Background(), req(1))
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("want bounded-retry failure, got %v (attempts %d)", err, attempts)
	}
}

func TestFleetHeartbeatExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := power.StartStopwatchAt(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	f := NewFleet(FleetOptions{HeartbeatTTL: 10 * time.Second, Clock: clock, Logf: testLogf(t)})
	_, w := startWorker(t, "mortal", 1, echoEval, "")
	if _, err := f.Upsert(w); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Workers != 1 {
		t.Fatalf("stats: %+v", s)
	}
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	if s := f.Stats(); s.Workers != 0 || s.Cap != 0 {
		t.Fatalf("expired worker still counted: %+v", s)
	}
	// A fresh heartbeat revives it.
	if fresh, err := f.Upsert(w); err != nil || !fresh {
		t.Fatalf("revival: fresh=%v err=%v", fresh, err)
	}
	if s := f.Stats(); s.Workers != 1 {
		t.Fatalf("stats after revival: %+v", s)
	}
}

func TestWorkerServerAuthAndErrors(t *testing.T) {
	_, w := startWorker(t, "guarded", 1, echoEval, "sesame")

	// Wrong token -> 401, and the fleet surfaces it as a dispatch error.
	f := NewFleet(FleetOptions{MaxAttempts: 1, Token: "wrong", Logf: testLogf(t)})
	if _, err := f.Upsert(w); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background(), req(1)); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("want 401 dispatch failure, got %v", err)
	}

	// Right token -> result.
	f2 := NewFleet(FleetOptions{Token: "sesame", Logf: testLogf(t)})
	if _, err := f2.Upsert(w); err != nil {
		t.Fatal(err)
	}
	res, err := f2.Run(context.Background(), req(1))
	if err != nil || res.Worker != "guarded" {
		t.Fatalf("authed dispatch: %+v %v", res, err)
	}

	// Malformed body -> 400.
	resp, err := http.Post(w.URL+"/run", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated malformed post: %d", resp.StatusCode)
	}
}

// postJSON posts v to url and returns the status code and decoded body.
func postJSON(t *testing.T, url string, v any) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// specCache stands in for the evaluator's prepared-spec cache
// (studyd.EvaluateRequest): it keeps the hashes of the specs it evaluated
// and refuses what that cache refuses, with the same sentinels. A fresh
// one is a restarted worker process.
type specCache struct {
	mu    sync.Mutex
	known map[string]bool
}

func (c *specCache) eval(ctx context.Context, r TrialRequest) (TrialResult, error) {
	if err := c.admit(r); err != nil {
		return TrialResult{}, err
	}
	return echoEval(ctx, r)
}

func (c *specCache) admit(r TrialRequest) error {
	if r.SpecHash == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.known[r.SpecHash]:
	case len(r.Spec) == 0:
		return fmt.Errorf("spec %s: %w", r.SpecHash, ErrSpecNotCached)
	case SpecHashOf(r.Spec) != r.SpecHash:
		return fmt.Errorf("spec hashes to %s: %w", SpecHashOf(r.Spec), ErrSpecHashMismatch)
	default:
		if c.known == nil {
			c.known = map[string]bool{}
		}
		c.known[r.SpecHash] = true
	}
	return nil
}

// TestWorkerSpecCache: the worker answers a hash-only dispatch from its
// evaluator's cache, and its refusal is a 428 that is not a trial.
func TestWorkerSpecCache(t *testing.T) {
	spec := json.RawMessage(`{"objective":"paper"}`)
	hash := SpecHashOf(spec)
	_, w := startWorker(t, "cachy", 1, (&specCache{}).eval, "")

	// Hash-only before the spec was ever sent: 428, resend required.
	trials, errs := metricWorkerTrials.Value(), metricWorkerTrialErrors.Value()
	status, _ := postJSON(t, w.URL+"/run", TrialRequest{StudyID: "s1", TrialID: 1, SpecHash: hash, Seed: 10})
	if status != http.StatusPreconditionRequired {
		t.Fatalf("cold-cache hash-only dispatch: status %d, want 428", status)
	}
	if metricWorkerTrials.Value() != trials || metricWorkerTrialErrors.Value() != errs {
		t.Fatal("a 428 was counted as a worker trial")
	}

	// Full spec + hash: evaluated and cached.
	status, body := postJSON(t, w.URL+"/run", TrialRequest{StudyID: "s1", TrialID: 1, Spec: spec, SpecHash: hash, Seed: 10})
	if status != http.StatusOK || body["values"].(map[string]any)["f"] != 10.0 {
		t.Fatalf("full dispatch: status %d body %v", status, body)
	}

	// Hash-only now serves from the cache, identical result.
	status, body = postJSON(t, w.URL+"/run", TrialRequest{StudyID: "s1", TrialID: 2, SpecHash: hash, Seed: 20})
	if status != http.StatusOK || body["values"].(map[string]any)["f"] != 20.0 {
		t.Fatalf("cached dispatch: status %d body %v", status, body)
	}
}

// TestWorkerRejectsWrongSpecHash: the evaluator files nothing under a hash
// the spec bytes do not have. A forged pairing is a 400 and leaves the
// cache empty — a hash-only dispatch of the real owner of that hash is
// still a 428, not a run of the forger's spec.
func TestWorkerRejectsWrongSpecHash(t *testing.T) {
	spec, other := json.RawMessage(`{"objective":"paper"}`), json.RawMessage(`{"objective":"other"}`)
	_, w := startWorker(t, "strict", 1, (&specCache{}).eval, "")
	status, body := postJSON(t, w.URL+"/run", TrialRequest{StudyID: "s1", TrialID: 1, Spec: other, SpecHash: SpecHashOf(spec), Seed: 10})
	if status != http.StatusBadRequest || body["error"] == nil {
		t.Fatalf("spec under another spec's hash: status %d body %v, want 400", status, body)
	}
	status, _ = postJSON(t, w.URL+"/run", TrialRequest{StudyID: "s1", TrialID: 2, SpecHash: SpecHashOf(spec), Seed: 20})
	if status != http.StatusPreconditionRequired {
		t.Fatalf("hash-only dispatch after the refused one: status %d, want 428", status)
	}
}

// TestWorkerErrorsAreAPIErrors: every non-200 answer of /run is the
// daemons' error envelope with an explicit Content-Length.
func TestWorkerErrorsAreAPIErrors(t *testing.T) {
	_, w := startWorker(t, "errs", 1, func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		switch r.TrialID {
		case 1:
			return TrialResult{}, fmt.Errorf("wrapped: %w", ErrSpecHashMismatch)
		case 2:
			return TrialResult{}, fmt.Errorf("wrapped: %w", ErrSpecNotCached)
		case 3:
			return TrialResult{}, fmt.Errorf("disk on fire")
		case 4:
			return TrialResult{}, fmt.Errorf("stopped: %w", context.Canceled)
		default:
			return TrialResult{StudyID: r.StudyID, TrialID: r.TrialID, Values: map[string]float64{"f": math.Inf(1)}}, nil
		}
	}, "")
	huge := req(6)
	huge.Params = map[string]string{"pad": strings.Repeat("x", maxRunBody)}
	bodyOf := func(r TrialRequest) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct {
		body string
		want int
	}{
		{"{nope", http.StatusBadRequest},
		{bodyOf(req(1)), http.StatusBadRequest},
		{bodyOf(huge), http.StatusRequestEntityTooLarge},
		{bodyOf(req(2)), http.StatusPreconditionRequired},
		{bodyOf(req(3)), http.StatusInternalServerError},
		{bodyOf(req(4)), http.StatusServiceUnavailable},
		{bodyOf(req(5)), http.StatusInternalServerError},
	} {
		resp, err := http.Post(w.URL+"/run", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var apiErr daemon.APIError
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if resp.StatusCode != c.want || dec.Decode(&apiErr) != nil || apiErr.Error == "" {
			t.Fatalf("%.40s: status %d body %q, want %d in the APIError envelope", c.body, resp.StatusCode, raw, c.want)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(raw)) {
			t.Fatalf("%.40s: Content-Length %q for a %d-byte body", c.body, cl, len(raw))
		}
	}
}

func TestFleetSpecCacheAndWorkerRestart(t *testing.T) {
	spec := json.RawMessage(`{"objective":"paper"}`)
	hash := SpecHashOf(spec)

	// A fresh server is a restarted worker process: its evaluator holds no
	// spec.
	newServer := func() *Server {
		return &Server{Name: "cachy", Eval: (&specCache{}).eval, Logf: testLogf(t)}
	}
	var cur atomic.Pointer[Server]
	cur.Store(newServer())

	// Record, per wire request, whether the body carried the spec.
	var mu sync.Mutex
	var sawSpec []bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var m map[string]any
		_ = json.Unmarshal(body, &m)
		mu.Lock()
		_, has := m["spec"]
		sawSpec = append(sawSpec, has)
		mu.Unlock()
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		cur.Load().Handler().ServeHTTP(w, r2)
	}))
	t.Cleanup(ts.Close)

	f := NewFleet(FleetOptions{Logf: testLogf(t)})
	if _, err := f.Upsert(WorkerInfo{Name: "cachy", URL: ts.URL, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	run := func(id int) {
		t.Helper()
		res, err := f.Run(context.Background(), TrialRequest{
			StudyID: "s1", TrialID: id, Seed: uint64(id) * 10, Spec: spec, SpecHash: hash,
		})
		if err != nil || res.Values["f"] != float64(id)*10 {
			t.Fatalf("trial %d: %+v %v", id, res, err)
		}
	}

	run(1) // first dispatch ships the full spec
	run(2) // repeat dispatch goes hash-only
	mu.Lock()
	if len(sawSpec) != 2 || !sawSpec[0] || sawSpec[1] {
		t.Fatalf("wire pattern before restart: %v, want [full, hash-only]", sawSpec)
	}
	mu.Unlock()

	// Worker restarts mid-campaign with an empty cache: the hash-only
	// dispatch misses (428), the fleet resends in full, the trial succeeds
	// and the worker is neither dropped nor charged a failure.
	cur.Store(newServer())
	run(3)
	mu.Lock()
	if len(sawSpec) != 4 || sawSpec[2] || !sawSpec[3] {
		t.Fatalf("wire pattern after restart: %v, want [..., hash-only, full]", sawSpec)
	}
	mu.Unlock()
	ws := f.Workers()
	if len(ws) != 1 || ws[0].Completed != 3 || ws[0].Failed != 0 {
		t.Fatalf("restart fallback penalized the worker: %+v", ws)
	}
}

func TestWorkerInfoValidate(t *testing.T) {
	cases := []WorkerInfo{
		{},
		{Name: "w"},
		{Name: "w", URL: "ftp://nope"},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
	if err := (WorkerInfo{Name: "w", URL: "http://h:1"}).Validate(); err != nil {
		t.Errorf("good info rejected: %v", err)
	}
}

func TestRegistrarLifecycle(t *testing.T) {
	var mu sync.Mutex
	events := []string{}
	record := func(kind string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if _, ok := daemon.NewAuth("tok", nil).Authenticate(r); !ok {
				w.WriteHeader(http.StatusUnauthorized)
				return
			}
			var info WorkerInfo
			if err := json.NewDecoder(r.Body).Decode(&info); err != nil || info.Name != "reg" {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			mu.Lock()
			events = append(events, kind)
			mu.Unlock()
			w.WriteHeader(http.StatusOK)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers/register", record("register"))
	mux.HandleFunc("POST /workers/heartbeat", record("heartbeat"))
	mux.HandleFunc("POST /workers/deregister", record("deregister"))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	reg := &Registrar{
		Daemon:   srv.URL,
		Info:     WorkerInfo{Name: "reg", URL: "http://127.0.0.1:1", Slots: 1},
		Token:    "tok",
		Interval: 5 * time.Millisecond,
		Logf:     testLogf(t),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- reg.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		beats := 0
		for _, e := range events {
			if e == "heartbeat" {
				beats++
			}
		}
		mu.Unlock()
		if beats >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeats observed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("clean stop returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if events[0] != "register" {
		t.Fatalf("first event %q, want register", events[0])
	}
	if events[len(events)-1] != "deregister" {
		t.Fatalf("last event %q, want deregister", events[len(events)-1])
	}
}

// TestWorkerAnswersUnencodableResult500: a result encoding/json would
// refuse (a NaN metric) is a 500 whose error names the trial and the
// value, and the dispatcher's error carries it — not a 200 with an empty
// body that reads as a transport fault.
func TestWorkerAnswersUnencodableResult500(t *testing.T) {
	_, w := startWorker(t, "nan", 1, func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		return TrialResult{StudyID: r.StudyID, TrialID: r.TrialID, Values: map[string]float64{"f": math.NaN()}}, nil
	}, "")
	status, body := postJSON(t, w.URL+"/run", req(3))
	msg, _ := body["error"].(string)
	if status != http.StatusInternalServerError || !strings.Contains(msg, "trial s0001/3") || !strings.Contains(msg, "unsupported value: NaN") {
		t.Fatalf("NaN result: status %d body %v, want 500 naming the trial and the value", status, body)
	}

	f := NewFleet(FleetOptions{MaxAttempts: 1, Logf: testLogf(t)})
	if _, err := f.Upsert(w); err != nil {
		t.Fatal(err)
	}
	_, err := f.Run(context.Background(), req(3))
	if err == nil || !strings.Contains(err.Error(), "answered 500") || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("dispatch of a NaN result: %v, want the worker's 500 and its reason", err)
	}
}

// TestFleetSlotsSurviveReadmissionMidTrial: a worker dropped and re-admitted
// while one of its trials is in flight is a fresh record; that trial's
// settle must not release a slot of the fresh record, or the fleet
// over-subscribes the worker from then on.
func TestFleetSlotsSurviveReadmissionMidTrial(t *testing.T) {
	started := make(chan int, 8)
	gates := map[int]chan struct{}{1: make(chan struct{}), 3: make(chan struct{}), 4: make(chan struct{}), 5: make(chan struct{})}
	_, w := startWorker(t, "w", 2, func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		if r.TrialID == 2 {
			return TrialResult{}, fmt.Errorf("disk on fire")
		}
		started <- r.TrialID
		select {
		case <-gates[r.TrialID]:
			return echoEval(ctx, r)
		case <-ctx.Done():
			return TrialResult{}, ctx.Err()
		}
	}, "")
	f := NewFleet(FleetOptions{MaxAttempts: 1, Logf: testLogf(t)})
	if _, err := f.Upsert(w); err != nil {
		t.Fatal(err)
	}
	run := func(id int, errc chan<- error) {
		_, err := f.Run(context.Background(), req(id))
		errc <- err
	}

	errA := make(chan error, 1)
	go run(1, errA)
	<-started
	if _, err := f.Run(context.Background(), req(2)); err == nil {
		t.Fatal("trial 2 succeeded on a failing eval")
	}
	// Trial 2's failure dropped the worker; its heartbeat re-admits it.
	if fresh, err := f.Upsert(w); err != nil || !fresh {
		t.Fatalf("re-admission: fresh=%v err=%v", fresh, err)
	}
	close(gates[1])
	if err := <-errA; err != nil {
		t.Fatalf("trial 1: %v", err)
	}
	if s := f.Stats(); s.InUse != 0 || s.Cap != 2 {
		t.Fatalf("stats after the old lease settled: %+v, want InUse 0 of Cap 2", s)
	}
	if ws := f.Workers(); len(ws) != 1 || ws[0].Completed != 0 || ws[0].Failed != 0 {
		t.Fatalf("the old lease's outcome landed on the fresh record: %+v", ws)
	}

	// Three trials on two slots: two run, the third waits for a slot.
	errs := make(chan error, 3)
	for _, id := range []int{3, 4, 5} {
		go run(id, errs)
	}
	running := map[int]bool{<-started: true, <-started: true}
	if s := f.Stats(); s.InUse != 2 {
		t.Fatalf("two trials running, stats %+v", s)
	}
	select {
	case id := <-started:
		t.Fatalf("trial %d ran beside %v on a 2-slot worker", id, running)
	case <-time.After(50 * time.Millisecond):
	}
	for id := range running {
		close(gates[id])
	}
	third := <-started
	close(gates[third])
	for range 3 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.InUse != 0 {
		t.Fatalf("stats after the last settle: %+v", s)
	}
}

// TestWorkerBoundsRequestBody: a request past maxRunBody is a 413, and
// nothing is evaluated.
func TestWorkerBoundsRequestBody(t *testing.T) {
	var calls atomic.Int32
	_, w := startWorker(t, "bounded", 1, func(ctx context.Context, r TrialRequest) (TrialResult, error) {
		calls.Add(1)
		return echoEval(ctx, r)
	}, "")
	huge := req(1)
	huge.Params = map[string]string{"pad": strings.Repeat("x", maxRunBody)}
	status, body := postJSON(t, w.URL+"/run", huge)
	if status != http.StatusRequestEntityTooLarge || body["error"] == nil {
		t.Fatalf("oversized request: status %d body %v, want 413", status, body)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("oversized request was evaluated %d times", n)
	}
	if status, _ := postJSON(t, w.URL+"/run", req(2)); status != http.StatusOK {
		t.Fatalf("request after the oversized one: status %d", status)
	}
}

// TestFleetBoundsResultBody: a result past maxRunBody is an
// infrastructure error, not a result.
func TestFleetBoundsResultBody(t *testing.T) {
	huge := `{"study_id":"s0001","trial_id":1,"worker":"` + strings.Repeat("x", maxRunBody) + `"}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, huge)
	}))
	t.Cleanup(ts.Close)
	f := NewFleet(FleetOptions{MaxAttempts: 1, Logf: testLogf(t)})
	if _, err := f.Upsert(WorkerInfo{Name: "chatty", URL: ts.URL, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background(), req(1))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d bytes", maxRunBody)) {
		t.Fatalf("oversized result: %+v, %v", res.StudyID, err)
	}
}
