package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/obs"
	"rldecide/internal/obs/span"
	"rldecide/internal/power"
)

// Backend is one serve daemon the router fronts. Name must match the
// daemon's -name flag — it is the shard identity used in study-ID
// prefixes, ownership manifests, and metric labels.
type Backend struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ParseBackends parses the -backends flag syntax: name=url,name2=url2,...
func ParseBackends(s string) ([]Backend, error) {
	var out []Backend
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		if !ok || name == "" || rawURL == "" {
			return nil, fmt.Errorf("shard: bad backend entry %q (want name=url)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: duplicate backend %q", name)
		}
		seen[name] = true
		out = append(out, Backend{Name: name, URL: rawURL})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shard: no backends configured")
	}
	return out, nil
}

// Config configures a Router.
type Config struct {
	// Backends are the serve daemons to route across. Required.
	Backends []Backend
	// Auth gates the router's own mutating endpoint (POST /rehome).
	// Study/worker mutations are enforced by the backends — the router
	// passes the caller's Authorization header through untouched.
	Auth *daemon.Auth
	// Token is the bearer the router presents for the backend calls it
	// originates itself (adopt during re-homing). It must be a credential
	// every backend accepts.
	Token string
	// ProbeTimeout bounds each backend health probe and scrape (default
	// 3s).
	ProbeTimeout time.Duration
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// Router is the stateless directory/router daemon fronting a fleet of
// serve daemons: it places submissions by consistent hash with bounded
// loads, proxies study reads/SSE/cancel to the owning daemon, aggregates
// fleet-wide /studies, /workers and /metrics views, and re-homes the
// studies of dead daemons onto live ones. All its durable state — who
// owns which study — lives in the backends' shared state directory; the
// router's in-memory directory is a cache rebuilt from fleet-wide list
// calls, so a restarted router recovers by asking.
type Router struct {
	cfg     Config
	ring    *Ring
	byName  map[string]Backend
	proxies map[string]*httputil.ReverseProxy
	client  *http.Client
	bus     *obs.Bus
	reg     *obs.Registry
	clock   *power.Stopwatch

	metricProxied      *obs.Counter
	metricRehomes      *obs.Counter
	metricScrapeErrors *obs.Counter

	mu sync.Mutex
	// guarded-by: mu
	placements map[string]string // study ID -> backend name
	// placed counts placements per backend; place keeps the two in step.
	// guarded-by: mu
	placed map[string]int
	// guarded-by: mu
	down map[string]bool

	listMu sync.Mutex
	// lists holds each backend's listMemo: at most one list body per
	// configured backend.
	// guarded-by: listMu
	lists map[string]*listMemo

	spanMu sync.Mutex
	// placeSpans holds the router's own placement spans per study so
	// GET /studies/{id}/spans can splice them into the owning daemon's
	// tree (the daemon never sees the router's side of the hop). Bounded
	// FIFO per study ID.
	// guarded-by: spanMu
	placeSpans map[string][]span.Span
	// guarded-by: spanMu
	spanOrder []string
}

// maxSpanStudies bounds how many studies' placement spans the router
// retains (oldest study evicted first).
const maxSpanStudies = 1024

// New builds a router over the given backends.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: Config.Backends is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 3 * time.Second
	}
	rt := &Router{
		cfg:        cfg,
		byName:     map[string]Backend{},
		proxies:    map[string]*httputil.ReverseProxy{},
		client:     &http.Client{},
		bus:        obs.NewBus(),
		reg:        obs.NewRegistry(),
		clock:      power.StartStopwatch(),
		placements: map[string]string{},
		placed:     map[string]int{},
		down:       map[string]bool{},
		lists:      map[string]*listMemo{},
		placeSpans: map[string][]span.Span{},
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		target, err := url.Parse(b.URL)
		if err != nil || target.Scheme == "" || target.Host == "" {
			return nil, fmt.Errorf("shard: backend %s has invalid URL %q", b.Name, b.URL)
		}
		if _, dup := rt.byName[b.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate backend %q", b.Name)
		}
		rt.byName[b.Name] = b
		names = append(names, b.Name)
		proxy := &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(target)
				pr.Out.Host = target.Host
			},
			// Flush every write through immediately so proxied SSE streams
			// (GET /studies/{id}/events) push frames as they arrive.
			FlushInterval: -1,
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				daemon.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", b.Name, err))
			},
		}
		rt.proxies[b.Name] = proxy
	}
	rt.ring = NewRing(names)
	rt.metricProxied = rt.reg.NewCounter("rldecide_router_proxied_total",
		"Requests proxied to owning backends.")
	rt.metricRehomes = rt.reg.NewCounter("rldecide_router_rehomes_total",
		"Studies re-homed onto a live backend after an owner death.")
	rt.metricScrapeErrors = rt.reg.NewCounter("rldecide_router_scrape_errors_total",
		"Failed backend scrapes/probes (metrics rollup and fan-out reads).")
	rt.reg.NewGaugeFunc("rldecide_router_backends",
		"Configured backends by router-observed liveness.", func() []obs.Sample {
			rt.mu.Lock()
			downCount := len(rt.down)
			rt.mu.Unlock()
			up := len(rt.byName) - downCount
			return []obs.Sample{
				{Labels: [][2]string{{"state", "up"}}, Value: float64(up)},
				{Labels: [][2]string{{"state", "down"}}, Value: float64(downCount)},
			}
		})
	rt.reg.NewCounterFunc("rldecide_bus_dropped_total",
		"Event-bus events dropped per subscriber because its buffer was full.",
		func() []obs.Sample { return rt.bus.DropSamples() })
	rt.reg.NewGaugeFunc("rldecide_router_placements",
		"Directory entries (studies with a known owner) per backend.", func() []obs.Sample {
			loads := rt.loads(rt.ring.Backends())
			names := rt.ring.Backends()
			out := make([]obs.Sample, len(names))
			for i, n := range names {
				out[i] = obs.Sample{Labels: [][2]string{{"daemon", n}}, Value: float64(loads[n])}
			}
			return out
		})
	return rt, nil
}

// Bus exposes the router's event bus (backend up/down, placements,
// re-homes) for tests and embedders.
func (rt *Router) Bus() *obs.Bus { return rt.bus }

// Registry exposes the router's own metric registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Shutdown closes the router's event bus; the kernel lifecycle calls it
// as the drain step.
func (rt *Router) Shutdown(context.Context) error {
	_ = rt.bus.Close() // always nil
	return nil
}

// ListenAndServe serves the router's HTTP API on addr until ctx is
// cancelled — the kernel's serve-then-drain lifecycle.
func (rt *Router) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	rt.cfg.Logf("router: serving on %s (%d backends)", addr, len(rt.byName))
	return daemon.Run(ctx, addr, rt.Handler(), grace, rt.Shutdown)
}

// Handler returns the router's HTTP API:
//
//	GET  /healthz              router + per-backend liveness
//	GET  /metrics              fleet-wide rollup (daemon-labeled) + router series
//	GET  /studies              fleet-wide study list (merged, ID-sorted)
//	POST /studies              place on a backend and forward             [backend auth]
//	GET  /studies/{id}/spans   owning daemon's span tree + router placement spans
//	ANY  /studies/{id}...      proxied to the owning backend
//	GET  /workers              every backend's worker registry
//	POST /rehome               probe backends, re-home stranded studies  [auth]
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /studies", rt.handleList)
	// The router is a stateless pass-through: submissions and cancels are
	// forwarded with the client's Authorization header intact and the
	// owning backend enforces auth + tenant quotas, so wrapping them here
	// would force the router to share every backend token.
	//lint:ignore handler-auth submission is forwarded verbatim; the owning backend enforces auth and quota
	mux.HandleFunc("POST /studies", rt.handleSubmit)
	mux.HandleFunc("GET /studies/{id}", rt.proxyStudy)
	mux.HandleFunc("GET /studies/{id}/spans", rt.handleSpans)
	mux.HandleFunc("GET /studies/{id}/{sub...}", rt.proxyStudy)
	//lint:ignore handler-auth cancel is proxied to the owning backend, which enforces auth
	mux.HandleFunc("POST /studies/{id}/cancel", rt.proxyStudy)
	mux.HandleFunc("GET /workers", rt.handleWorkers)
	mux.HandleFunc("POST /rehome", rt.cfg.Auth.Require(rt.handleRehome))
	return mux
}

// sortedBackends returns the backend list sorted by name — every fan-out
// walks it in this order so aggregate responses are deterministic.
func (rt *Router) sortedBackends() []Backend {
	names := rt.ring.Backends()
	out := make([]Backend, len(names))
	for i, n := range names {
		out[i] = rt.byName[n]
	}
	return out
}

// live returns the backends the router currently believes are up.
func (rt *Router) live() []Backend {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []Backend
	for _, b := range rt.sortedBackends() {
		if !rt.down[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

// place records backend as the owner of study id. rt.mu must be held.
func (rt *Router) place(id, backend string) {
	if old, ok := rt.placements[id]; ok {
		if old == backend {
			return
		}
		rt.placed[old]--
	}
	rt.placements[id] = backend
	rt.placed[backend]++
}

// loads returns the directory entries per backend restricted to names.
func (rt *Router) loads(names []string) map[string]int {
	out := make(map[string]int, len(names))
	rt.mu.Lock()
	for _, n := range names {
		out[n] = rt.placed[n]
	}
	rt.mu.Unlock()
	return out
}

// do issues a router-originated request to a backend path.
func (rt *Router) do(ctx context.Context, method string, b Backend, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(b.URL, "/")+path, rd)
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"Authorization", "Content-Type", "Accept"} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	return rt.client.Do(req)
}

// authedHeader is the header set for router-originated mutations.
func (rt *Router) authedHeader() http.Header {
	h := http.Header{}
	if rt.cfg.Token != "" {
		h.Set("Authorization", "Bearer "+rt.cfg.Token)
	}
	h.Set("Content-Type", "application/json")
	return h
}

// probe checks one backend's liveness within the probe timeout.
func (rt *Router) probe(ctx context.Context, b Backend) bool {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	resp, err := rt.do(ctx, http.MethodGet, b, "/healthz", nil, nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := map[string]string{}
	ok := false
	for _, b := range rt.sortedBackends() {
		if rt.probe(r.Context(), b) {
			states[b.Name] = "up"
			ok = true
		} else {
			states[b.Name] = "down"
		}
	}
	status := http.StatusOK
	if !ok {
		// A router with no live backend cannot serve anything.
		status = http.StatusServiceUnavailable
	}
	daemon.WriteJSON(w, status, map[string]any{"ok": ok, "backends": states})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var expos []Exposition
	for _, b := range rt.live() {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
		resp, err := rt.do(ctx, http.MethodGet, b, "/metrics", nil, nil)
		if err != nil {
			cancel()
			rt.metricScrapeErrors.Inc()
			rt.cfg.Logf("router: scraping %s: %v", b.Name, err)
			continue
		}
		text, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			rt.metricScrapeErrors.Inc()
			rt.cfg.Logf("router: scraping %s: status %d, %v", b.Name, resp.StatusCode, err)
			continue
		}
		expos = append(expos, Exposition{Daemon: b.Name, Text: string(text)})
	}
	var own bytes.Buffer
	if err := rt.reg.WriteText(&own); err == nil {
		expos = append(expos, Exposition{Text: own.String()})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := MergeExpositions(w, expos); err != nil {
		rt.cfg.Logf("router: metrics rollup: %v", err)
	}
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	studies, err := rt.listStudies(r.Context())
	if err != nil {
		daemon.WriteError(w, http.StatusBadGateway, err)
		return
	}
	daemon.WriteStudyList(w, studies)
}

// listStudies fans GET /studies out to every live backend, refreshes the
// placement directory from the answers, and returns the merged summaries
// sorted by study ID, each in daemon.StudyListElem form. A backend that
// cannot be reached or answers anything but 200 with a list is skipped and
// counted. An ID listed more than once (a re-homed study whose old owner
// came back, docs/sharding.md) keeps one summary: the highest generation,
// the backend first in name order on a tie.
func (rt *Router) listStudies(ctx context.Context) ([]string, error) {
	var entries []listEntry
	var lastErr error
	reached := 0
	for _, b := range rt.live() {
		var err error
		if entries, err = rt.appendList(ctx, b, entries); err != nil {
			rt.metricScrapeErrors.Inc()
			lastErr = fmt.Errorf("backend %s: %w", b.Name, err)
			continue
		}
		reached++
	}
	if reached == 0 && lastErr != nil {
		return nil, lastErr
	}
	byID := func(a, b listEntry) int { return strings.Compare(a.id, b.id) }
	if !slices.IsSortedFunc(entries, byID) {
		// Stable, so that summaries of one ID stay in backend name order.
		slices.SortStableFunc(entries, byID)
	}
	kept := entries[:0]
	for _, e := range entries {
		if n := len(kept); n > 0 && kept[n-1].id == e.id {
			if generationOf(e.raw) > generationOf(kept[n-1].raw) {
				kept[n-1] = e
			}
			continue
		}
		kept = append(kept, e)
	}
	out := make([]string, len(kept))
	rt.mu.Lock()
	for i, e := range kept {
		out[i] = e.raw
		if rt.placements[e.id] != e.backend {
			// Cloned, or one directory entry would pin a whole listing body.
			rt.place(strings.Clone(e.id), e.backend)
		}
	}
	rt.mu.Unlock()
	return out, nil
}

// appendList appends the summaries one backend lists to entries. The
// splitter resumes from the backend's last body it took whole (listMemo);
// a body it declines leaves the backend no memo.
func (rt *Router) appendList(ctx context.Context, b Backend, entries []listEntry) ([]listEntry, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	resp, err := rt.do(ctx, http.MethodGet, b, "/studies", nil, nil)
	if err != nil {
		return entries, err
	}
	defer resp.Body.Close()
	// Read as a string, which the splitter's entries are substrings of.
	// Sized from the header so the body is never regrown, but not on the
	// word of a header alone past what a list has any business being.
	var buf strings.Builder
	if n := resp.ContentLength; 0 < n && n < 1<<28 {
		buf.Grow(int(n))
	}
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return entries, err
	}
	if resp.StatusCode != http.StatusOK {
		return entries, fmt.Errorf("status %d", resp.StatusCode)
	}
	body := buf.String()
	if entries == nil {
		// An indented summary is upwards of 250 bytes. Growing the table by
		// doubling instead costs a 4000-study listing 1.2 MB of garbage
		// against 0.3 MB and a sixth of the split's time.
		entries = make([]listEntry, 0, len(body)/250+1)
	}
	// The memo is taken out while in use: a listing running beside this
	// one splits its body from the start.
	rt.listMu.Lock()
	memo := rt.lists[b.Name]
	delete(rt.lists, b.Name)
	rt.listMu.Unlock()
	if memo == nil {
		memo = &listMemo{}
	}
	if split, ok := splitList(body, b.Name, entries, memo); ok {
		rt.listMu.Lock()
		rt.lists[b.Name] = memo
		rt.listMu.Unlock()
		return split, nil
	}
	return decodeList(body, b.Name, entries)
}

// generationOf reads a summary's ownership generation (0 when it has none).
func generationOf(summary string) int {
	var p struct {
		Generation int `json:"generation"`
	}
	// A summary that does not decode cleanly still has the generation it has.
	_ = json.Unmarshal([]byte(summary), &p)
	return p.Generation
}

func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	var fleets []json.RawMessage
	for _, b := range rt.live() {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
		resp, err := rt.do(ctx, http.MethodGet, b, "/workers", nil, nil)
		if err != nil {
			cancel()
			rt.metricScrapeErrors.Inc()
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			rt.metricScrapeErrors.Inc()
			continue
		}
		fleets = append(fleets, json.RawMessage(raw))
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"fleets": fleets})
}

// handleSubmit is placement: pick the backend by consistent hash with
// bounded loads over the spec bytes, forward the submission (the caller's
// credentials pass through; the backend enforces auth and quota), and on
// success record the minted study ID in the directory.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		daemon.WriteError(w, http.StatusBadRequest, err)
		return
	}
	live := rt.live()
	if len(live) == 0 {
		daemon.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no live backends"))
		return
	}
	names := make([]string, len(live))
	for i, b := range live {
		names[i] = b.Name
	}
	ring := rt.ring
	if len(names) != len(rt.byName) {
		ring = NewRing(names)
	}
	target := ring.Place(string(body), rt.loads(names))
	b := rt.byName[target]

	placeStart := rt.clock.ElapsedSeconds() * 1e3
	resp, err := rt.do(r.Context(), http.MethodPost, b, "/studies", body, r.Header)
	if err != nil {
		daemon.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", b.Name, err))
		return
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		daemon.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", b.Name, err))
		return
	}
	if resp.StatusCode == http.StatusCreated {
		var p summaryProbe
		if err := json.Unmarshal(answer, &p); err == nil && p.ID != "" {
			rt.mu.Lock()
			rt.place(p.ID, b.Name)
			rt.mu.Unlock()
			rt.recordPlaceSpan(p.ID, b.Name, placeStart)
			rt.bus.Publish(obs.Event{Kind: obs.KindStudyPlaced, Study: p.ID, Daemon: b.Name})
			rt.cfg.Logf("router: placed study %s on %s", p.ID, b.Name)
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(answer)
}

// owner resolves which backend serves a study: the directory first, then
// a probe of the live backends in name order (rebuilding the directory
// entry on a hit). The name-ordered probe keeps resolution deterministic.
func (rt *Router) owner(ctx context.Context, id string) (Backend, bool) {
	rt.mu.Lock()
	name, ok := rt.placements[id]
	isDown := rt.down[name]
	rt.mu.Unlock()
	if ok && !isDown {
		return rt.byName[name], true
	}
	for _, b := range rt.live() {
		bctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		resp, err := rt.do(bctx, http.MethodGet, b, "/studies/"+url.PathEscape(id), nil, nil)
		if err != nil {
			cancel()
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		cancel()
		if resp.StatusCode == http.StatusOK {
			rt.mu.Lock()
			rt.place(id, b.Name)
			rt.mu.Unlock()
			return b, true
		}
	}
	return Backend{}, false
}

// proxyStudy forwards a per-study request (summary, trials, front, SSE
// events, cancel) to the owning backend.
func (rt *Router) proxyStudy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, ok := rt.owner(r.Context(), id)
	if !ok {
		daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("no backend serves study %q", id))
		return
	}
	rt.metricProxied.Inc()
	rt.proxies[b.Name].ServeHTTP(w, r)
}

// ReconcileReport is the outcome of one reconcile pass.
type ReconcileReport struct {
	Live    []string          `json:"live"`
	Down    []string          `json:"down,omitempty"`
	Rehomed map[string]string `json:"rehomed,omitempty"`
}

func (rt *Router) handleRehome(w http.ResponseWriter, r *http.Request) {
	report := rt.Reconcile(r.Context())
	daemon.WriteJSON(w, http.StatusOK, report)
}

// Reconcile is the failover pass: probe every backend, refresh the
// directory from the live ones, and re-home every directory entry owned
// by a dead backend — in sorted study-ID order, via each study's
// bounded-load placement on the surviving ring — by POSTing adopt to the
// new owner. Deterministic: same directory, same live set → same
// re-homing, so a router restarted mid-failover converges to the same
// assignment.
func (rt *Router) Reconcile(ctx context.Context) ReconcileReport {
	report := ReconcileReport{Rehomed: map[string]string{}}
	for _, b := range rt.sortedBackends() {
		up := rt.probe(ctx, b)
		rt.mu.Lock()
		was := rt.down[b.Name]
		if up {
			delete(rt.down, b.Name)
		} else {
			rt.down[b.Name] = true
		}
		rt.mu.Unlock()
		if up {
			report.Live = append(report.Live, b.Name)
			if was {
				rt.bus.Publish(obs.Event{Kind: obs.KindBackendUp, Daemon: b.Name})
				rt.cfg.Logf("router: backend %s is back up", b.Name)
			}
		} else {
			report.Down = append(report.Down, b.Name)
			if !was {
				rt.bus.Publish(obs.Event{Kind: obs.KindBackendDown, Daemon: b.Name})
				rt.cfg.Logf("router: backend %s is down", b.Name)
			}
		}
	}
	if len(report.Live) == 0 {
		return report
	}
	// Refresh the directory so every live-owned study is accounted for
	// before loads are computed.
	if _, err := rt.listStudies(ctx); err != nil {
		rt.cfg.Logf("router: reconcile list: %v", err)
	}

	rt.mu.Lock()
	var stranded []string
	for id, owner := range rt.placements {
		if rt.down[owner] {
			stranded = append(stranded, id)
		}
	}
	rt.mu.Unlock()
	sort.Strings(stranded)
	if len(stranded) == 0 {
		return report
	}

	liveRing := NewRing(report.Live)
	for _, id := range stranded {
		target := liveRing.Place(id, rt.loads(report.Live))
		if target == "" {
			break
		}
		b := rt.byName[target]
		resp, err := rt.do(ctx, http.MethodPost, b, "/studies/"+url.PathEscape(id)+"/adopt", nil, rt.authedHeader())
		if err != nil {
			rt.cfg.Logf("router: re-homing %s onto %s: %v", id, target, err)
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			rt.cfg.Logf("router: re-homing %s onto %s: status %d", id, target, resp.StatusCode)
			continue
		}
		rt.mu.Lock()
		rt.place(id, target)
		rt.mu.Unlock()
		rt.metricRehomes.Inc()
		rt.bus.Publish(obs.Event{Kind: obs.KindStudyAdopted, Study: id, Daemon: target})
		rt.cfg.Logf("router: re-homed study %s onto %s", id, target)
		report.Rehomed[id] = target
	}
	return report
}
