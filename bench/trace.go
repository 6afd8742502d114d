package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rldecide/internal/executor"
)

// Tracing here is the harness's own: wrappers around the public seams of
// each layer (http.Handler, http.RoundTripper, executor.EvalFunc) plus
// client-side spans. Nothing inside the program under test is switched on
// (Config.Spans stays off), so a traced run differs from an untraced one
// only by these wrappers. Every method is a no-op on a nil *recorder.

// spanHeader carries the caller's span ID across an HTTP hop so the
// callee's span can name its parent.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Spans of one study
// share Trace (the study ID).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Trial  int    `json:"trial,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Dispatch spans: HTTP status, body sizes, and whether the request
	// carried the full spec (as opposed to the hash-only form).
	Status    int   `json:"status,omitempty"`
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
	FullSpec  bool  `json:"full_spec,omitempty"`
	// Eval spans: the objective time the program itself reported.
	WallMs float64 `json:"wall_ms,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type recorder struct {
	ids atomic.Int64

	mu sync.Mutex
	// guarded-by: mu
	spans []span

	// watchers waits for the goroutines that stamp ManagedStudy.Done().
	watchers sync.WaitGroup
}

func newRecorder() *recorder { return &recorder{} }

// now is the harness clock in the spans' unit (ns).
func (rc *recorder) now() int64 { return int64(now()) }

func (rc *recorder) newID() int64 { return rc.ids.Add(1) }

func (rc *recorder) add(s span) {
	if rc == nil {
		return
	}
	if s.ID == 0 {
		s.ID = rc.newID()
	}
	rc.mu.Lock()
	rc.spans = append(rc.spans, s)
	rc.mu.Unlock()
}

// reset drops every span recorded so far.
func (rc *recorder) reset() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	rc.spans = rc.spans[:0]
	rc.mu.Unlock()
}

// timed records f as one span and returns its duration.
func (rc *recorder) timed(layer, name, trace string, f func()) time.Duration {
	start := now()
	f()
	d := now() - start
	rc.add(span{Layer: layer, Name: name, Trace: trace, Start: int64(start), End: int64(start + d)})
	return d
}

// begin opens a client-side span; its ID goes out with the client's
// requests as their parent. On a nil recorder the span is zero and end
// drops it.
func (rc *recorder) begin(name, trace string) span {
	if rc == nil {
		return span{}
	}
	return span{ID: rc.newID(), Layer: "bench", Name: name, Trace: trace, Start: rc.now()}
}

func (rc *recorder) end(sp span) {
	if rc == nil {
		return
	}
	sp.End = rc.now()
	rc.add(sp)
}

// watchDone stamps the moment done closes (ManagedStudy.Done()) as a
// "done" instant of the study's trace.
func (rc *recorder) watchDone(trace string, done <-chan struct{}) {
	if rc == nil {
		return
	}
	rc.watchers.Add(1)
	go func() {
		defer rc.watchers.Done()
		<-done
		t := rc.now()
		rc.add(span{Layer: "studyd", Name: "done", Trace: trace, Start: t, End: t})
	}()
}

// snapshot waits for the done-watchers and returns every span, by start.
func (rc *recorder) snapshot() []span {
	if rc == nil {
		return nil
	}
	rc.watchers.Wait()
	rc.mu.Lock()
	out := append([]span(nil), rc.spans...)
	rc.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

type spanKey struct{}

// routeName folds a request into its route, pulling the study ID out as
// the trace: GET /studies/d0-s0007/front -> ("GET /studies/{id}/front",
// "d0-s0007").
func routeName(method, path string) (name, trace string) {
	rest, ok := strings.CutPrefix(path, "/studies/")
	if !ok || rest == "" {
		return method + " " + path, ""
	}
	id, sub, _ := strings.Cut(rest, "/")
	name = method + " /studies/{id}"
	if sub != "" {
		name += "/" + sub
	}
	return name, id
}

// captureWriter keeps the status and, for submissions, the head of the
// response body (the minted study ID is in it).
type captureWriter struct {
	http.ResponseWriter
	status int
	keep   bool
	head   []byte
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.keep && len(c.head) < 256 {
		c.head = append(c.head, p...)
	}
	return c.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController (the reverse proxy's flusher) reach
// the real writer.
func (c *captureWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// studyIDIn extracts "id" from (the head of) a study summary body.
func studyIDIn(body []byte) string {
	_, rest, ok := bytes.Cut(body, []byte(`"id":`))
	if !ok {
		return ""
	}
	rest = bytes.TrimLeft(rest, ` "`)
	id, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(id)
}

// handler wraps h so every request it serves is one span of the layer.
func (rc *recorder) handler(layer string, h http.Handler) http.Handler {
	if rc == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rc.newID()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		name, trace := routeName(r.Method, r.URL.Path)
		// A proxied request carries this span on as the parent of the
		// next hop's.
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK, keep: name == "POST /studies"}
		ctx := context.WithValue(r.Context(), spanKey{}, id)
		start := rc.now()
		h.ServeHTTP(cw, r.WithContext(ctx))
		end := rc.now()
		if cw.keep {
			trace = studyIDIn(cw.head)
		}
		rc.add(span{ID: id, Parent: parent, Layer: layer, Name: name, Trace: trace, Start: start, End: end, Status: cw.status})
	})
}

// eval wraps the worker's EvalFunc: one "eval" span per trial under the
// worker's /run span.
func (rc *recorder) eval(f executor.EvalFunc) executor.EvalFunc {
	if rc == nil {
		return f
	}
	return func(ctx context.Context, req executor.TrialRequest) (executor.TrialResult, error) {
		parent, _ := ctx.Value(spanKey{}).(int64)
		start := rc.now()
		res, err := f(ctx, req)
		rc.add(span{Parent: parent, Layer: "executor", Name: "eval", Trace: req.StudyID, Trial: req.TrialID,
			Start: start, End: rc.now(), WallMs: res.WallMs})
		return res, err
	}
}

// dispatchRT is the fleet's dispatch transport: one "dispatch" span per
// POST /run, closed once the whole response body has arrived.
type dispatchRT struct {
	rc   *recorder
	base http.RoundTripper
}

func (t dispatchRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rc.newID()
	sp := span{ID: id, Layer: "executor", Name: "dispatch", ReqBytes: req.ContentLength}
	if req.GetBody != nil {
		if rd, err := req.GetBody(); err == nil {
			var head struct {
				StudyID string          `json:"study_id"`
				TrialID int             `json:"trial_id"`
				Spec    json.RawMessage `json:"spec"`
			}
			if json.NewDecoder(rd).Decode(&head) == nil {
				sp.Trace, sp.Trial, sp.FullSpec = head.StudyID, head.TrialID, len(head.Spec) > 0
			}
			_ = rd.Close() // an in-memory reader
		}
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	sp.Start = t.rc.now()
	resp, err := t.base.RoundTrip(out)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // the body was read to its end
		resp.Body = io.NopCloser(bytes.NewReader(body))
		sp.Status, sp.RespBytes = resp.StatusCode, int64(len(body))
	}
	sp.End = t.rc.now()
	t.rc.add(sp)
	return resp, err
}

// dispatchClient is what the harness puts in FleetOptions.Client on a
// traced run (nil, the program's default, otherwise).
func (rc *recorder) dispatchClient() *http.Client {
	if rc == nil {
		return nil
	}
	return &http.Client{Transport: dispatchRT{rc: rc, base: http.DefaultTransport}}
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// linkFanout parents the daemon-side spans of router-originated calls.
// The router forwards only a fixed header set on the calls it originates
// (submit, /metrics and /studies fan-out), so the span header does not
// reach the daemon; the harness links those afterwards: a submission by
// its study ID, a fan-out call by the one router span of the same route
// whose interval contains it.
func linkFanout(spans []span) {
	byRoute := map[string][]int{}
	for i, s := range spans {
		if s.Layer == "shard" {
			byRoute[s.Name] = append(byRoute[s.Name], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer != "studyd" || s.Parent != 0 || s.Start == s.End {
			continue
		}
		for _, j := range byRoute[s.Name] {
			p := spans[j]
			if p.Start <= s.Start && s.End <= p.End && (s.Name != "POST /studies" || p.Trace == s.Trace) {
				s.Parent = p.ID
				break
			}
		}
	}
}
