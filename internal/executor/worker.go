package executor

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
	"rldecide/internal/power"
)

// Server is the worker daemon's HTTP surface: it receives trial dispatches
// from a Fleet, evaluates them with Eval, and answers with the result.
// Workers hold no campaign state — every request is self-contained — so a
// worker can crash, restart and re-register at any time without the
// daemon's journal noticing.
type Server struct {
	// Name is the worker's registered name, stamped into every result for
	// journal attribution.
	Name string
	// Eval evaluates one trial (typically studyd.EvaluateRequest).
	Eval EvalFunc
	// Token, when set, is required as a bearer token on /run.
	Token string
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	inFlight atomic.Int64

	// Span stopwatch, started lazily on the first traced dispatch. Workers
	// record spans only when the dispatch carries trace headers; there is
	// no worker-side flag.
	clockOnce sync.Once
	clock     *power.Stopwatch

	// Spec cache: study specs are identical across a study's trials, so
	// the dispatcher sends the full spec once and hash-only afterwards.
	// The cache is bounded (FIFO eviction) and purely an optimization —
	// a miss answers 428 and the dispatcher resends in full, which is
	// also how a restarted (empty-cache) worker recovers mid-campaign.
	specMu sync.Mutex
	// guarded-by: specMu
	specs map[string]json.RawMessage
	// guarded-by: specMu
	specOrder []string
}

// maxCachedSpecs bounds the worker's spec cache. Specs are small (a few
// KB) and campaigns rarely interleave many studies per worker.
const maxCachedSpecs = 64

// cacheSpec stores the spec under hash, evicting the oldest entry when
// full. The bytes are copied: the request buffer is reused by net/http.
// Nothing is filed under a hash the bytes do not have — later hash-only
// dispatches of another study would run this spec — so a first sight of a
// hash costs one SHA-256 of the spec and a repeat costs nothing.
func (s *Server) cacheSpec(hash string, spec json.RawMessage) error {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	if s.specs == nil {
		s.specs = make(map[string]json.RawMessage, maxCachedSpecs)
	}
	if _, ok := s.specs[hash]; ok {
		return nil
	}
	if got := SpecHashOf(spec); got != hash {
		return fmt.Errorf("spec hashes to %s, not to its spec_hash %s", got, hash)
	}
	for len(s.specs) >= maxCachedSpecs {
		oldest := s.specOrder[0]
		s.specOrder = s.specOrder[1:]
		delete(s.specs, oldest)
	}
	s.specs[hash] = append(json.RawMessage(nil), spec...)
	s.specOrder = append(s.specOrder, hash)
	return nil
}

// cachedSpec looks up a spec by hash.
func (s *Server) cachedSpec(hash string) (json.RawMessage, bool) {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	spec, ok := s.specs[hash]
	return spec, ok
}

// Handler returns the worker API:
//
//	GET  /healthz  liveness + in-flight trial count
//	GET  /metrics  Prometheus text-format exposition
//	POST /run      evaluate one TrialRequest -> TrialResult
func (s *Server) Handler() http.Handler {
	reg := obs.NewRegistry()
	reg.NewGaugeFunc("rldecide_worker_in_flight",
		"Trials this worker is evaluating right now.", func() []obs.Sample {
			return []obs.Sample{{Labels: [][2]string{{"worker", s.Name}}, Value: float64(s.inFlight.Load())}}
		})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default, reg))
	mux.HandleFunc("POST /run", daemon.NewAuth(s.Token, nil).Require(s.handleRun))
	return mux
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"worker":    s.Name,
		"in_flight": s.inFlight.Load(),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := readRunBody(http.MaxBytesReader(w, r.Body, maxRunBody), r.ContentLength)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	var req TrialRequest
	if !decodeTrialRequest(body, &req) {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
	}
	if req.SpecHash != "" {
		if len(req.Spec) > 0 {
			if err := s.cacheSpec(req.SpecHash, req.Spec); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
				return
			}
		} else {
			spec, ok := s.cachedSpec(req.SpecHash)
			if !ok {
				// Cache miss (bounded cache evicted it, or this worker
				// restarted): ask the dispatcher to resend the full spec.
				writeJSON(w, http.StatusPreconditionRequired,
					map[string]any{"error": "spec " + req.SpecHash + " not cached; resend with full spec"})
				return
			}
			req.Spec = spec
		}
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	// A traced dispatch (span headers present) gets a "run" span covering
	// this worker's handling, with the objective span recorded under it by
	// the evaluator via the context scope. The collected spans ride back in
	// the result so the dispatching daemon holds the complete tree.
	evalCtx := r.Context()
	trace, parentHdr := span.Extract(r.Header)
	var col *span.Collector
	var runSpan *span.Active
	if trace != "" {
		col = span.NewCollector(0)
		base := span.Scope{
			Trace:  trace,
			Parent: parentHdr,
			Study:  req.StudyID,
			Trial:  req.TrialID,
			Worker: s.Name,
			Clock:  s.stopwatch(),
			Sink:   col.Record,
		}
		runSpan = (&base).Start(span.NameRun, 0)
		child := base
		child.Parent = span.DeriveID(trace, parentHdr, span.NameRun, req.TrialID, 0)
		evalCtx = span.NewContext(evalCtx, &child)
	}
	res, err := s.Eval(evalCtx, req)
	metricWorkerTrials.Inc()
	if err != nil {
		metricWorkerTrialErrors.Inc()
		// Infrastructure failure (bad spec bytes, cancellation): the
		// dispatcher retries; nothing is journaled.
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		s.logf("worker %s: trial %s/%d failed: %v", s.Name, req.StudyID, req.TrialID, err)
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	status := "ok"
	if res.Error != "" {
		status = "failed"
	}
	runSpan.Finish(status, res.Error)
	res.Spans = col.Spans()
	res.Worker = s.Name
	// Encode before the status line goes out, so a result encoding/json
	// would refuse (a NaN or infinite metric) is a 500 that says why, not a
	// 200 with an empty body.
	out, err := appendTrialResult(make([]byte, 0, 256), res)
	if err != nil {
		err = fmt.Errorf("worker %s: trial %s/%d: encoding result: %w", s.Name, req.StudyID, req.TrialID, err)
		s.logf("%v", err)
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out) // a failed write is the dispatcher's transport fault
}

// stopwatch returns the worker's span clock, starting it on first use.
func (s *Server) stopwatch() *power.Stopwatch {
	s.clockOnce.Do(func() { s.clock = power.StartStopwatch() })
	return s.clock
}

// CheckBearer reports whether r carries the bearer token (in constant
// time). An empty want disables the check.
func CheckBearer(r *http.Request, want string) bool {
	if want == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Registrar announces a worker to the study daemon and keeps the
// registration alive with heartbeats. The heartbeat body is the full
// WorkerInfo, so a daemon that restarted — or dropped the worker after a
// failed dispatch — re-admits it on the next beat with no extra protocol.
type Registrar struct {
	// Daemon is the study daemon's base URL (rldecide-serve).
	Daemon string
	// Info is this worker's registration.
	Info WorkerInfo
	// Token authenticates against the daemon's worker endpoints.
	Token string
	// Interval is the heartbeat period (default 3s).
	Interval time.Duration
	// Client is the HTTP client used (default http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (g *Registrar) logf(format string, args ...any) {
	if g.Logf != nil {
		g.Logf(format, args...)
	}
}

func (g *Registrar) client() *http.Client {
	if g.Client != nil {
		return g.Client
	}
	return http.DefaultClient
}

func (g *Registrar) interval() time.Duration {
	if g.Interval > 0 {
		return g.Interval
	}
	return 3 * time.Second
}

// Run registers the worker (retrying until the daemon is reachable), then
// heartbeats every Interval until ctx is cancelled, deregistering on the
// way out. It returns nil on a clean ctx-driven stop.
func (g *Registrar) Run(ctx context.Context) error {
	if err := g.Info.Validate(); err != nil {
		return err
	}
	for {
		err := g.post(ctx, "/workers/register", g.Info)
		if err == nil {
			g.logf("worker %s: registered with %s", g.Info.Name, g.Daemon)
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		g.logf("worker %s: registration with %s failed (will retry): %v", g.Info.Name, g.Daemon, err)
		select {
		case <-time.After(g.interval()):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ticker := time.NewTicker(g.interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			g.deregister()
			return nil
		case <-ticker.C:
			if err := g.post(ctx, "/workers/heartbeat", g.Info); err != nil && ctx.Err() == nil {
				g.logf("worker %s: heartbeat failed: %v", g.Info.Name, err)
			}
		}
	}
}

// deregister tells the daemon the worker is leaving; best-effort with a
// short deadline since the worker is shutting down anyway.
func (g *Registrar) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := g.post(ctx, "/workers/deregister", g.Info); err != nil {
		g.logf("worker %s: deregister failed: %v", g.Info.Name, err)
	}
}

func (g *Registrar) post(ctx context.Context, path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(g.Daemon, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if g.Token != "" {
		req.Header.Set("Authorization", "Bearer "+g.Token)
	}
	resp, err := g.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("executor: %s answered %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}
