package executor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
	"rldecide/internal/power"
)

// WorkerInfo is a worker's registration: how the daemon reaches it and how
// many trials it runs at once. The same payload registers, heartbeats and
// re-registers — a heartbeat from an unknown worker (say, one the fleet
// dropped after a timeout) simply re-adds it.
type WorkerInfo struct {
	// Name identifies the worker; journal records attribute trials to it.
	Name string `json:"name"`
	// URL is the worker's base URL (the daemon POSTs trials to URL+"/run").
	URL string `json:"url"`
	// Slots is the worker's concurrent-trial capacity (< 1 treated as 1).
	Slots int `json:"slots"`
}

// Validate checks a registration payload.
func (w WorkerInfo) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("executor: worker registration needs a name")
	}
	if !strings.HasPrefix(w.URL, "http://") && !strings.HasPrefix(w.URL, "https://") {
		return fmt.Errorf("executor: worker %q needs an http(s) url, got %q", w.Name, w.URL)
	}
	return nil
}

// WorkerStatus is the API-facing digest of one fleet member.
type WorkerStatus struct {
	WorkerInfo
	InFlight   int     `json:"in_flight"`
	Dispatched int     `json:"dispatched"`
	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	BeatAgeSec float64 `json:"beat_age_seconds"`
}

// FleetOptions tunes a Fleet. The zero value is usable: every field has a
// default.
type FleetOptions struct {
	// AttemptTimeout bounds one dispatch attempt (connection + evaluation);
	// an attempt that exceeds it is abandoned and the trial is retried on
	// another worker (default 10m, <0 disables).
	AttemptTimeout time.Duration
	// MaxAttempts bounds how many workers a trial is tried on before Run
	// gives up (default 4).
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles per
	// retry (default 100ms).
	Backoff time.Duration
	// HeartbeatTTL expires workers whose last heartbeat is older than this
	// (default 15s). Expiry is lazy — checked at every lease — so the
	// fleet needs no background goroutine.
	HeartbeatTTL time.Duration
	// Token, when set, is sent as a bearer token on every dispatch (the
	// worker daemons check it).
	Token string
	// Client is the dispatch HTTP client (default http.DefaultClient).
	Client *http.Client
	// Clock is the wall-clock seam used to age heartbeats; inject a fake
	// stopwatch in tests (default power.StartStopwatch()).
	Clock *power.Stopwatch
	// Events, when set, receives worker lifecycle announcements
	// (obs.KindWorkerUp/KindWorkerDown). Dispatch attempts are timed by
	// "dispatch" spans on the ambient tracing scope instead. Publication
	// is non-blocking and purely observational.
	Events *obs.Bus
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Fleet dispatches trials over HTTP to registered workers. Scheduling is a
// lease: Run picks the live worker with the most free slots (name order
// breaks ties), blocks when every slot is busy or no worker is registered,
// and requeues the trial onto another worker when a dispatch fails — which
// is how a mid-campaign kill -9 of a worker loses no trials.
type Fleet struct {
	opts   FleetOptions
	client *http.Client
	clock  *power.Stopwatch
	events *obs.Bus
	logf   func(string, ...any)

	mu sync.Mutex
	// guarded-by: mu
	workers map[string]*remoteWorker
	// guarded-by: mu
	wait chan struct{} // closed+replaced whenever capacity may have grown
}

type remoteWorker struct {
	info       WorkerInfo
	lastBeat   time.Duration // clock offset of the last heartbeat/registration
	inFlight   int
	dispatched int
	completed  int
	failed     int
	// specs records spec hashes this worker has evaluated, so repeat
	// dispatches ship hash-only requests. It is advisory: a 428 from the
	// worker (restart, eviction, re-registered objectives) triggers a full
	// resend.
	specs map[string]bool
}

// NewFleet returns an empty fleet; workers join via Upsert (the daemon's
// register/heartbeat endpoints call it).
func NewFleet(opts FleetOptions) *Fleet {
	if opts.AttemptTimeout == 0 {
		opts.AttemptTimeout = 10 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.HeartbeatTTL <= 0 {
		opts.HeartbeatTTL = 15 * time.Second
	}
	f := &Fleet{
		opts:    opts,
		client:  opts.Client,
		clock:   opts.Clock,
		events:  opts.Events,
		logf:    opts.Logf,
		workers: map[string]*remoteWorker{},
		wait:    make(chan struct{}),
	}
	if f.client == nil {
		f.client = http.DefaultClient
	}
	if f.clock == nil {
		f.clock = power.StartStopwatch()
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	return f
}

// Upsert registers a worker or refreshes an existing one's heartbeat and
// registration info. It returns true when the worker is new to the fleet.
func (f *Fleet) Upsert(info WorkerInfo) (bool, error) {
	if err := info.Validate(); err != nil {
		return false, err
	}
	if info.Slots < 1 {
		info.Slots = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[info.Name]
	if !ok {
		w = &remoteWorker{}
		f.workers[info.Name] = w
		f.events.Publish(obs.Event{Kind: obs.KindWorkerUp, Worker: info.Name})
	}
	w.info = info
	w.lastBeat = f.clock.Elapsed()
	f.wakeLocked()
	return !ok, nil
}

// Remove deregisters a worker, reporting whether it was present. In-flight
// dispatches to it finish (or fail and retry elsewhere) on their own.
func (f *Fleet) Remove(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.workers[name]
	delete(f.workers, name)
	if ok {
		f.events.Publish(obs.Event{Kind: obs.KindWorkerDown, Worker: name, Status: "deregistered"})
	}
	f.wakeLocked()
	return ok
}

// Workers returns the live fleet members, name-sorted.
func (f *Fleet) Workers() []WorkerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.expireLocked()
	now := f.clock.Elapsed()
	out := make([]WorkerStatus, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, WorkerStatus{
			WorkerInfo: w.info,
			InFlight:   w.inFlight,
			Dispatched: w.dispatched,
			Completed:  w.completed,
			Failed:     w.failed,
			BeatAgeSec: (now - w.lastBeat).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats implements Executor.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.expireLocked()
	var s Stats
	for _, w := range f.workers {
		s.Cap += w.info.Slots
		s.InUse += w.inFlight
		s.Workers++
	}
	return s
}

// Run implements Executor: lease a worker, dispatch the trial with the
// per-attempt timeout, and on failure drop the worker (its next heartbeat
// re-admits it) and requeue the trial — backing off exponentially — until
// the result arrives, ctx is cancelled, or MaxAttempts workers have failed.
func (f *Fleet) Run(ctx context.Context, req TrialRequest) (TrialResult, error) {
	// An ambient tracing scope (installed by the daemon when spans are on)
	// times each dispatch attempt and names the parent span the worker's
	// own spans attach under. Nil scope — the common case — records nothing.
	sc := span.FromContext(ctx)
	trace := ""
	if sc != nil {
		trace = sc.Trace
	}
	backoff := f.opts.Backoff
	for attempt := 1; ; attempt++ {
		rw, w, err := f.lease(ctx)
		if err != nil {
			return TrialResult{}, err
		}
		send := req
		if req.SpecHash != "" && f.workerKnowsSpec(rw, req.SpecHash) {
			send.Spec = nil // worker has the spec cached; ship hash-only
		}
		dsp := sc.Start(span.NameDispatch, attempt)
		dsp.SetWorker(w.Name)
		parent := dsp.ID()
		start := f.clock.Elapsed()
		res, err := f.dispatch(ctx, w, send, trace, parent)
		if errors.Is(err, ErrSpecNotCached) && len(send.Spec) == 0 {
			// The worker's evaluator no longer holds the spec (restart
			// mid-campaign, eviction, re-registered objectives): forget our
			// assumption and resend with the full spec. Not a worker fault,
			// so no drop and no attempt consumed.
			metricSpecCacheMisses.Inc()
			f.forgetSpec(rw, req.SpecHash)
			res, err = f.dispatch(ctx, w, req, trace, parent)
		}
		metricDispatches.Inc()
		metricDispatchSeconds.Observe((f.clock.Elapsed() - start).Seconds())
		if err != nil {
			metricDispatchFailures.Inc()
			dsp.Finish("error", err.Error())
		} else {
			dsp.Finish("ok", "")
		}
		f.settle(rw, err == nil)
		if err == nil {
			if req.SpecHash != "" {
				f.rememberSpec(rw, req.SpecHash)
			}
			// Fold the worker-side spans (run, objective) into our sink so
			// the owning daemon holds the complete tree.
			for _, sp := range res.Spans {
				sc.Record(sp)
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return TrialResult{}, ctx.Err()
		}
		f.drop(rw, err)
		f.logf("executor: trial %s/%d attempt %d on worker %s failed: %v",
			req.StudyID, req.TrialID, attempt, w.Name, err)
		if attempt >= f.opts.MaxAttempts {
			return TrialResult{}, fmt.Errorf("executor: trial %s/%d failed on %d workers, giving up: %w",
				req.StudyID, req.TrialID, attempt, err)
		}
		metricRetries.Inc()
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return TrialResult{}, ctx.Err()
		}
		backoff *= 2
	}
}

// lease blocks until a live worker has a free slot, then claims it. It
// returns the record it claimed, which settle and drop act on only while
// that record is still the registered one (a worker dropped and re-admitted
// mid-trial is a fresh record that owes the old lease nothing), and a copy
// of the worker's registration to dispatch with.
func (f *Fleet) lease(ctx context.Context) (*remoteWorker, WorkerInfo, error) {
	for {
		f.mu.Lock()
		f.expireLocked()
		// The worker with the most free slots, ties to the smaller name.
		var pick *remoteWorker
		most := 0
		for name, w := range f.workers {
			free := w.info.Slots - w.inFlight
			if free > most || free == most && free > 0 && name < pick.info.Name {
				pick, most = w, free
			}
		}
		if pick != nil {
			pick.inFlight++
			pick.dispatched++
			info := pick.info
			f.mu.Unlock()
			return pick, info, nil
		}
		wait := f.wait
		f.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, WorkerInfo{}, ctx.Err()
		}
	}
}

// registeredLocked reports whether w is still the fleet's record for its
// worker. Callers hold f.mu.
func (f *Fleet) registeredLocked(w *remoteWorker) bool {
	return f.workers[w.info.Name] == w
}

// settle releases a lease and updates the worker's counters.
func (f *Fleet) settle(w *remoteWorker, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.registeredLocked(w) {
		w.inFlight--
		if ok {
			w.completed++
		} else {
			w.failed++
		}
	}
	f.wakeLocked()
}

// drop removes a faulted worker until its next heartbeat re-admits it.
func (f *Fleet) drop(w *remoteWorker, cause error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.registeredLocked(w) {
		name := w.info.Name
		delete(f.workers, name)
		f.events.Publish(obs.Event{Kind: obs.KindWorkerDown, Worker: name, Status: "dropped", Err: cause.Error()})
		f.logf("executor: dropping worker %s until its next heartbeat: %v", name, cause)
	}
	f.wakeLocked()
}

// expireLocked drops workers whose heartbeat is older than the TTL.
// Callers hold f.mu.
func (f *Fleet) expireLocked() {
	now := f.clock.Elapsed()
	for name, w := range f.workers {
		if now-w.lastBeat > f.opts.HeartbeatTTL {
			delete(f.workers, name)
			f.events.Publish(obs.Event{Kind: obs.KindWorkerDown, Worker: name, Status: "expired"})
			f.logf("executor: worker %s heartbeat expired (%.1fs > %s)", name, (now - w.lastBeat).Seconds(), f.opts.HeartbeatTTL)
		}
	}
}

// wakeLocked rouses every goroutine blocked in lease so it re-evaluates
// capacity. Callers hold f.mu.
func (f *Fleet) wakeLocked() {
	close(f.wait)
	f.wait = make(chan struct{})
}

// workerKnowsSpec reports whether the worker has confirmed holding hash.
func (f *Fleet) workerKnowsSpec(w *remoteWorker, hash string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.registeredLocked(w) && w.specs[hash]
}

// rememberSpec records that the worker holds the spec (it evaluated a
// dispatch carrying it, or served a hash-only dispatch).
func (f *Fleet) rememberSpec(w *remoteWorker, hash string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.registeredLocked(w) {
		if w.specs == nil {
			w.specs = map[string]bool{}
		}
		w.specs[hash] = true
	}
}

// forgetSpec drops the cached-spec assumption after a worker-side miss.
func (f *Fleet) forgetSpec(w *remoteWorker, hash string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(w.specs, hash)
}

// dispatch POSTs the trial to one worker and decodes its answer. A
// non-empty trace propagates the tracing context via the span headers so
// the worker records (and returns) its side of the tree.
func (f *Fleet) dispatch(ctx context.Context, w WorkerInfo, req TrialRequest, trace, parent string) (TrialResult, error) {
	body, err := appendTrialRequest(make([]byte, 0, 256+len(req.Spec)), req)
	if err != nil {
		return TrialResult{}, fmt.Errorf("executor: encoding trial request: %w", err)
	}
	if f.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.opts.AttemptTimeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(w.URL, "/")+"/run", bytes.NewReader(body))
	if err != nil {
		return TrialResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	span.Inject(hreq.Header, trace, parent)
	if f.opts.Token != "" {
		hreq.Header.Set("Authorization", "Bearer "+f.opts.Token)
	}
	resp, err := f.client.Do(hreq)
	if err != nil {
		return TrialResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusPreconditionRequired {
		// Drained only so the connection can be reused: the 428 is the
		// answer, and a failed read of its body leaves nothing to report.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return TrialResult{}, fmt.Errorf("worker %s: %w", w.Name, ErrSpecNotCached)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return TrialResult{}, fmt.Errorf("executor: worker %s answered %d: %s", w.Name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	raw, err := readRunBody(io.LimitReader(resp.Body, maxRunBody+1), resp.ContentLength)
	if err != nil {
		return TrialResult{}, fmt.Errorf("executor: reading worker %s result: %w", w.Name, err)
	}
	if len(raw) > maxRunBody {
		return TrialResult{}, fmt.Errorf("executor: worker %s answered a result of more than %d bytes", w.Name, maxRunBody)
	}
	var res TrialResult
	if !decodeTrialResult(raw, &res) {
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&res); err != nil {
			return TrialResult{}, fmt.Errorf("executor: decoding worker %s result: %w", w.Name, err)
		}
	}
	if res.TrialID != req.TrialID || res.StudyID != req.StudyID {
		return TrialResult{}, fmt.Errorf("executor: worker %s answered trial %s/%d for dispatch %s/%d",
			w.Name, res.StudyID, res.TrialID, req.StudyID, req.TrialID)
	}
	if res.Worker == "" {
		res.Worker = w.Name
	}
	return res, nil
}
