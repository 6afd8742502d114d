package studyd

import (
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rldecide/internal/analysis"
	"rldecide/internal/daemon"
	"rldecide/internal/executor"
	"rldecide/internal/journal"
	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
	"rldecide/internal/power"
	"rldecide/internal/rl"
)

// Config configures a daemon.
type Config struct {
	// Dir is the state directory (specs + journals). Required. In a
	// sharded deployment every serve daemon points at the same directory;
	// ownership manifests keep their studies apart.
	Dir string
	// Name identifies this daemon in a sharded fleet. When set, minted
	// study IDs are prefixed (<Name>-s0001), ownership manifests are
	// signed with it, and every per-daemon metric series carries a
	// daemon="<Name>" label so the router's rollup never collides series.
	// Empty keeps the single-daemon behavior (and metric names) exactly.
	Name string
	// Workers is the local executor's slot count: the max number of trials
	// executing concurrently across all studies (default 4; ignored in
	// fleet mode, where registered workers provide the capacity).
	Workers int
	// Exec selects the trial executor: ExecLocal (default) runs trials
	// in-process, ExecFleet dispatches them to registered
	// rldecide-worker daemons.
	Exec string
	// Token, when set, requires `Authorization: Bearer <Token>` on study
	// submission, study cancellation, and the worker endpoints. Read-only
	// endpoints stay open. Superseded by Auth when both are set (the
	// token folds in as the anonymous-tenant fallback).
	Token string
	// Auth is the kernel authenticator: per-tenant bearer tokens with
	// slot quotas. Nil builds one from Token alone.
	Auth *daemon.Auth
	// JournalMaxBytes caps each study's active journal segment; when a
	// segment crosses the cap it is sealed as <id>.trials-<n>.jsonl and
	// recorded in the study's manifest. 0 keeps single-file journals.
	JournalMaxBytes int64
	// TraceMaxBytes caps the trace stream's active file the same way.
	TraceMaxBytes int64
	// Fleet tunes the fleet executor (timeouts, retry, heartbeat TTL).
	// Token and Logf default to the daemon's own.
	Fleet executor.FleetOptions
	// Trace, when set, records per-trial causal span trees (study →
	// trial → dispatch → run → objective, plus journal appends) with
	// deterministic IDs derived from the study/trial/attempt keys,
	// propagates them to workers via the X-Rldecide-Trace headers, serves
	// each study's tree at GET /studies/{id}/spans, and streams the
	// daemon's event bus — announcements plus one event per finished span
	// — to <Dir>/trace.jsonl. Purely informational: campaign journals and
	// fronts are byte-identical with tracing on or off.
	Trace bool
	// Analysis, when set, journals the trajectories of locally executed
	// trials to <Dir>/<id>.trajectories.jsonl (one rl.Episode per line)
	// for the decision-analysis endpoints. Like Trace, it is provably
	// off the result path: journals and fronts are byte-identical with
	// analysis on or off.
	Analysis bool
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// Daemon is the study-execution service: store + executor + HTTP API.
type Daemon struct {
	cfg    Config
	store  *Store
	exec   executor.Executor
	fleet  *executor.Fleet
	bus    *obs.Bus
	tracer *obs.Tracer
	reg    *obs.Registry

	// tracePath is where this daemon's trace stream lives (whether or
	// not tracing is enabled) — the trace-analysis endpoint reads it.
	tracePath string
	// traceStream is the file the tracer writes, when Config.Trace is on.
	traceStream *journal.SegWriter

	// spanClock times spans when Config.Trace is on (nil otherwise —
	// span scopes tolerate it, recording zero durations).
	spanClock *power.Stopwatch
	spanMu    sync.Mutex
	// spanCols holds each study's bounded span buffer, the store behind
	// GET /studies/{id}/spans.
	// guarded-by: spanMu
	spanCols map[string]*span.Collector

	epMu sync.Mutex
	// guarded-by: epMu
	epWriters map[string]*analysis.EpisodeWriter

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// inflight counts trials between proposal and completion; together
	// with the executor's InUse it yields the scheduler queue depth.
	inflight atomic.Int64

	mu sync.Mutex
	// guarded-by: mu
	stopped bool
}

// New opens the state directory (loading any persisted studies) and
// returns a daemon ready to Start.
func New(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("studyd: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Auth == nil {
		cfg.Auth = daemon.NewAuth(cfg.Token, nil)
	}
	fleetOpts := cfg.Fleet
	if fleetOpts.Token == "" {
		fleetOpts.Token = cfg.Token
	}
	if fleetOpts.Logf == nil {
		fleetOpts.Logf = cfg.Logf
	}
	// The bus always exists — SSE consumers and fleet events cost nothing
	// when nobody subscribes; Trace only decides whether a tracer drains
	// it to disk.
	bus := obs.NewBus()
	if fleetOpts.Events == nil {
		fleetOpts.Events = bus
	}
	// The fleet always exists so workers can register (and be inspected on
	// /workers) even while the daemon executes locally.
	fleet := executor.NewFleet(fleetOpts)
	var exec executor.Executor
	switch cfg.Exec {
	case "", ExecLocal:
		cfg.Exec = ExecLocal
		exec = executor.NewLocal(cfg.Workers, EvaluateRequest)
	case ExecFleet:
		exec = fleet
	default:
		return nil, fmt.Errorf("studyd: unknown executor mode %q (want %q or %q)", cfg.Exec, ExecLocal, ExecFleet)
	}
	store, err := OpenStore(cfg.Dir, cfg.Name, cfg.JournalMaxBytes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{cfg: cfg, store: store, exec: exec, fleet: fleet, bus: bus, ctx: ctx, cancel: cancel,
		epWriters: map[string]*analysis.EpisodeWriter{},
		spanCols:  map[string]*span.Collector{}}
	d.reg = d.newRegistry()
	name := "trace.jsonl"
	if cfg.Name != "" {
		// Daemons sharing a state directory must not fight over one
		// trace file.
		name = "trace-" + cfg.Name + ".jsonl"
	}
	// The path is fixed whether or not tracing is on: the trace-analysis
	// endpoint summarizes whatever stream exists at it.
	d.tracePath = filepath.Join(cfg.Dir, name)
	if cfg.Trace {
		// Appending, like every stream the daemon keeps: a restarted daemon
		// extends its trace rather than replacing it. A crash can have torn
		// the trace's last line; it is cut off first, as a trial journal's
		// is, or it would become mid-file corruption that fails every later
		// read. A trace that cannot be mended costs diagnostics only.
		if _, err := journal.RepairLines(d.tracePath, journal.ValidJSON); err != nil {
			cfg.Logf("studyd: repairing trace stream: %v", err)
		}
		stream, err := journal.OpenSegmented(d.tracePath, cfg.TraceMaxBytes)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("studyd: opening trace stream: %w", err)
		}
		d.traceStream = stream
		d.tracer = obs.NewTracer(bus, stream)
		d.spanClock = power.StartStopwatch()
	}
	return d, nil
}

// Name returns the daemon's fleet identity ("" for single-daemon mode).
func (d *Daemon) Name() string { return d.cfg.Name }

// Registry exposes the daemon's metric registry (queue depth, study
// status gauges, fleet collectors) for serving on an extra endpoint such
// as the -debug-addr mux.
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// Store exposes the study registry (used by tests and the CLI).
func (d *Daemon) Store() *Store { return d.store }

// Fleet exposes the worker registry (register/heartbeat handlers and tests).
func (d *Daemon) Fleet() *executor.Fleet { return d.fleet }

// Start resumes every persisted study that still has budget left. Call it
// once, after New and before serving traffic.
func (d *Daemon) Start() {
	for _, m := range d.store.Resumable() {
		sum := m.Summary()
		d.cfg.Logf("studyd: resuming study %s (%q) at %d/%d trials", m.ID, sum.Name, sum.Finished, sum.Budget)
		d.launch(m)
	}
}

// ErrQuota reports a submission refused because the tenant is at its
// slot quota (HTTP 429 at the API).
var ErrQuota = errors.New("studyd: tenant slot quota exceeded")

// Submit registers, persists and schedules a new study as the anonymous
// tenant.
func (d *Daemon) Submit(spec Spec) (*ManagedStudy, error) { return d.SubmitAs(spec, "") }

// SubmitAs registers, persists and schedules a new study on behalf of
// tenant, enforcing the tenant's slot quota: a tenant at its cap of
// active (pending or running) studies gets ErrQuota. Quota accounting is
// derived from the store on every call — nothing to leak or repair across
// restarts.
func (d *Daemon) SubmitAs(spec Spec, tenant string) (*ManagedStudy, error) {
	// One submission at a time: the quota check and the store insert must
	// be atomic or two racing submissions could both clear the last slot.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return nil, fmt.Errorf("studyd: daemon is shutting down")
	}
	if quota := d.cfg.Auth.Slots(tenant); quota > 0 {
		if active := d.store.ActiveByTenant()[tenant]; active >= quota {
			return nil, fmt.Errorf("%w: tenant %q has %d active studies (quota %d)", ErrQuota, tenant, active, quota)
		}
	}
	m, err := d.store.Submit(spec, tenant)
	if err != nil {
		return nil, err
	}
	metricSubmitted.Inc()
	d.cfg.Logf("studyd: accepted study %s (%q): budget %d, objective %s", m.ID, spec.Name, spec.Budget, spec.Objective)
	d.launch(m)
	return m, nil
}

// Adopt takes ownership of an on-disk study (typically one stranded by a
// dead daemon sharing this state directory), replays its journal, and —
// when budget remains — resumes it. Idempotent: adopting a study this
// daemon already runs returns it unchanged.
func (d *Daemon) Adopt(id string) (*ManagedStudy, error) {
	// Held through the launch, as in SubmitAs: a Shutdown between the check
	// and the launch would drain, then have a runner start after it.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return nil, fmt.Errorf("studyd: daemon is shutting down")
	}
	m, fresh, err := d.store.Adopt(id)
	if err != nil {
		return nil, err
	}
	if fresh {
		sum := m.Summary()
		d.bus.Publish(obs.Event{Kind: obs.KindStudyAdopted, Study: m.ID, Daemon: d.cfg.Name, Status: string(sum.Status)})
		d.cfg.Logf("studyd: adopted study %s (generation %d) at %d/%d trials", m.ID, m.Generation, sum.Finished, sum.Budget)
		if m.Status() == StatusPending {
			d.launch(m)
		}
	}
	return m, nil
}

// trajPath names a study's trajectory journal inside the state
// directory, alongside its spec and trial journal.
func (d *Daemon) trajPath(id string) string {
	return filepath.Join(d.cfg.Dir, id+".trajectories.jsonl")
}

// episodeSinkFor returns the study's trajectory journal writer, creating
// it on first use, or nil when analysis recording is off. Writers live
// for the daemon's lifetime (a resumed study appends to its journal) and
// are flushed and closed by Shutdown.
func (d *Daemon) episodeSinkFor(id string) rl.EpisodeSink {
	if !d.cfg.Analysis {
		return nil
	}
	d.epMu.Lock()
	defer d.epMu.Unlock()
	w, ok := d.epWriters[id]
	if !ok {
		w = analysis.NewEpisodeWriter(d.trajPath(id))
		d.epWriters[id] = w
	}
	return w
}

func (d *Daemon) launch(m *ManagedStudy) {
	// Traced, the whole run gets a study root span, and journal appends
	// are timed under per-trial journal spans (the hook must be set before
	// run starts consuming it).
	var root *span.Active
	if d.cfg.Trace {
		root = d.studyScope(m.ID).Start(span.NameStudy, 0)
		m.journalTimer = d.journalTimerFor(m.ID)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.bus.Publish(obs.Event{Kind: obs.KindStudyStart, Study: m.ID, Status: string(StatusRunning)})
		m.run(d.ctx, d.wrapFor(m))
		sum := m.Summary()
		root.Finish(string(sum.Status), sum.Error)
		d.bus.Publish(obs.Event{Kind: obs.KindStudyDone, Study: m.ID, Status: string(sum.Status)})
		d.cfg.Logf("studyd: study %s is %s (%d/%d trials)", m.ID, sum.Status, sum.Finished, sum.Budget)
	}()
}

// Shutdown stops the daemon: new submissions are refused, every running
// study's context is cancelled (in-flight trials that watch their
// Recorder.Context stop and are discarded — everything already finished
// is safe in the journal), and Shutdown waits for the runners to drain
// until ctx expires. A daemon that misses the deadline can be killed
// outright: startup repair plus journal replay restores the exact state.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.cancel()
	drained := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(drained)
	}()
	// Closing the bus after the runners drain lets SSE subscribers see
	// every final event before their channels close (graceful drain); on
	// a missed deadline it closes anyway so no handler hangs forever.
	defer func() {
		_ = d.bus.Close() // always nil
		if err := d.tracer.Close(); err != nil {
			d.cfg.Logf("studyd: closing trace stream: %v", err)
		}
		if d.traceStream != nil {
			if err := d.traceStream.Close(); err != nil {
				d.cfg.Logf("studyd: closing trace stream: %v", err)
			}
		}
		d.epMu.Lock()
		ids := make([]string, 0, len(d.epWriters))
		for id := range d.epWriters {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if err := d.epWriters[id].Close(); err != nil {
				d.cfg.Logf("studyd: closing trajectory journal for %s: %v", id, err)
			}
		}
		d.epMu.Unlock()
	}()
	select {
	case <-drained:
		d.cfg.Logf("studyd: drained cleanly")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("studyd: drain deadline exceeded: %w", ctx.Err())
	}
}

// ListenAndServe serves the daemon's HTTP API on addr until ctx is
// cancelled, then drains studies and shuts the server down with the given
// grace period — the kernel's serve-then-drain lifecycle.
func (d *Daemon) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	stats := d.exec.Stats()
	d.cfg.Logf("studyd: serving on %s (exec=%s, cap=%d, dir=%s)", addr, d.cfg.Exec, stats.Cap, d.cfg.Dir)
	return daemon.Run(ctx, addr, d.Handler(), grace, d.Shutdown)
}
