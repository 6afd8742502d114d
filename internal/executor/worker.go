package executor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
// Workers hold no campaign state and keep no spec bytes: a hash-only
// request is Eval's to answer from its own prepared-spec cache, or to
// refuse with ErrSpecNotCached, which this server answers 428 so the
// dispatcher resends in full. A worker can therefore crash, restart and
// re-register at any time without the daemon's journal noticing.
type Server struct {
	// Name is the worker's registered name, stamped into every result for
	// journal attribution.
	Name string
	// Eval evaluates one trial (typically studyd.EvaluateRequest). Its
	// ErrSpecNotCached and ErrSpecHashMismatch refusals answer 428 and
	// 400; any other error 500, or 503 for a cancellation.
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
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
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
		daemon.WriteError(w, status, err)
		return
	}
	var req TrialRequest
	if !decodeTrialRequest(body, &req) {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			daemon.WriteError(w, http.StatusBadRequest, err)
			return
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
	switch {
	case errors.Is(err, ErrSpecNotCached):
		// A hash-only dispatch the evaluator holds no spec for (this worker
		// restarted, evicted it, or re-registered objectives): the
		// dispatcher resends in full. A refusal of the request, not a
		// trial, so it is neither counted nor logged.
		daemon.WriteError(w, http.StatusPreconditionRequired, err)
		return
	case errors.Is(err, ErrSpecHashMismatch):
		// Nothing was filed under the forged hash and nothing ran.
		daemon.WriteError(w, http.StatusBadRequest, err)
		return
	}
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
		daemon.WriteError(w, status, err)
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
		daemon.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	daemon.WriteBody(w, http.StatusOK, out)
}

// stopwatch returns the worker's span clock, starting it on first use.
func (s *Server) stopwatch() *power.Stopwatch {
	s.clockOnce.Do(func() { s.clock = power.StartStopwatch() })
	return s.clock
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
