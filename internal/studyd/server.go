package studyd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rldecide/internal/daemon"
	"rldecide/internal/executor"
	"rldecide/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz              liveness + executor occupancy
//	GET  /metrics              Prometheus text-format exposition
//	GET  /studies              all studies (summaries)
//	POST /studies              submit a Spec (JSON) -> 201 + summary    [auth]
//	GET  /studies/{id}         one study's summary
//	GET  /studies/{id}/trials  finished trials (journal records, ID order)
//	GET  /studies/{id}/front   current Pareto ranking of completed trials
//	GET  /studies/{id}/events  SSE push stream of the study's live events
//	GET  /studies/{id}/spans   per-trial causal span tree (see -trace)
//	GET  /studies/{id}/analysis/{kind}
//	                           decision-analysis report (kind: traces |
//	                           attribution | counterfactuals), computed
//	                           on demand and cached in a sidecar file
//	POST /studies/{id}/cancel  stop the study's run (resumable later)   [auth]
//	POST /studies/{id}/adopt   claim ownership of an on-disk study      [auth]
//	GET  /workers              live fleet members (daemon-stamped)
//	POST /workers/register     add a worker to the fleet                [auth]
//	POST /workers/heartbeat    refresh a worker (upserts)               [auth]
//	POST /workers/deregister   remove a worker                         [auth]
//
// [auth] endpoints go through the kernel authenticator: a single shared
// token or per-tenant tokens with slot quotas (submissions over quota get
// 429). Read-only endpoints are always open.
func (d *Daemon) Handler() http.Handler {
	auth := d.cfg.Auth
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default, d.reg))
	mux.HandleFunc("GET /studies", d.handleList)
	mux.HandleFunc("POST /studies", auth.RequireTenant(d.handleSubmit))
	mux.HandleFunc("GET /studies/{id}", d.handleStudy(func(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
		daemon.WriteJSON(w, http.StatusOK, m.Summary())
	}))
	mux.HandleFunc("GET /studies/{id}/trials", d.handleStudy(d.serveTrials))
	mux.HandleFunc("GET /studies/{id}/front", d.handleStudy(d.serveFront))
	mux.HandleFunc("GET /studies/{id}/events", d.handleStudy(d.serveEvents))
	mux.HandleFunc("GET /studies/{id}/spans", d.handleStudy(d.serveSpans))
	mux.HandleFunc("GET /studies/{id}/analysis/{kind}", d.handleStudy(d.serveAnalysis))
	mux.HandleFunc("POST /studies/{id}/cancel", auth.Require(d.handleStudy(func(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
		m.Cancel()
		daemon.WriteJSON(w, http.StatusAccepted, m.Summary())
	})))
	mux.HandleFunc("POST /studies/{id}/adopt", auth.Require(d.handleAdopt))
	mux.HandleFunc("GET /workers", d.handleWorkers)
	mux.HandleFunc("POST /workers/register", auth.Require(d.handleWorkerUpsert))
	mux.HandleFunc("POST /workers/heartbeat", auth.Require(d.handleWorkerUpsert))
	mux.HandleFunc("POST /workers/deregister", auth.Require(d.handleWorkerDeregister))
	return mux
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats := d.exec.Stats()
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"daemon":   d.cfg.Name,
		"studies":  len(d.store.List()),
		"executor": d.cfg.Exec,
		"pool":     map[string]int{"cap": stats.Cap, "in_use": stats.InUse},
		"workers":  d.fleet.Stats().Workers,
	})
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	head, tail := d.store.listBody()
	daemon.WriteBody(w, http.StatusOK, head, tail)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request, tenant string) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		daemon.WriteError(w, http.StatusBadRequest, err)
		return
	}
	m, err := d.SubmitAs(spec, tenant)
	if errors.Is(err, ErrQuota) {
		daemon.WriteError(w, http.StatusTooManyRequests, err)
		return
	}
	if err != nil {
		daemon.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	daemon.WriteJSON(w, http.StatusCreated, m.Summary())
}

// handleAdopt claims ownership of a study persisted in the shared state
// directory — the re-homing half of the router's failover protocol. It
// looks the study up on disk, not in the live registry, because the whole
// point is that this daemon does not own it yet.
func (d *Daemon) handleAdopt(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := d.Adopt(id)
	if err != nil {
		daemon.WriteError(w, http.StatusNotFound, err)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, m.Summary())
}

func (d *Daemon) handleStudy(h func(http.ResponseWriter, *http.Request, *ManagedStudy)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, ok := d.store.Get(r.PathValue("id"))
		if !ok {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("no study %q", r.PathValue("id")))
			return
		}
		h(w, r, m)
	}
}

// serveTrials and serveFront answer from the study's bodies (trialsJSON,
// frontJSON): a done study's are rendered by its first read and then
// written as kept bytes.
func (d *Daemon) serveTrials(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
	serveBody(w, m.trialsJSON)
}

func (d *Daemon) serveFront(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
	serveBody(w, m.frontJSON)
}

func serveBody(w http.ResponseWriter, body func() ([]byte, error)) {
	b, err := body()
	if err != nil {
		daemon.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	daemon.WriteBody(w, http.StatusOK, b)
}

// terminalStatus reports whether a study's run is over (nothing more will
// happen until a resume on the next daemon start).
func terminalStatus(s Status) bool {
	return s == StatusDone || s == StatusFailed || s == StatusInterrupted
}

// serveEvents is the push replacement for polling /front: a Server-Sent
// Events stream of the study's live events (trial starts/completions,
// dispatch attempts, study completion) off the daemon's event bus. Every
// stream opens with a `summary` event and ends with one after the study
// reaches a terminal state. Slow consumers lose events rather than
// stalling the scheduler (the bus drops on a full buffer); the summary
// frames carry authoritative counts either way. On daemon shutdown the
// bus closes, which ends every stream after its final events — the
// graceful SIGTERM drain.
func (d *Daemon) serveEvents(w http.ResponseWriter, r *http.Request, m *ManagedStudy) {
	fl, ok := w.(http.Flusher)
	if !ok {
		daemon.WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	sub := d.bus.SubscribeNamed("sse", 256)
	if sub == nil {
		daemon.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("daemon is shutting down"))
		return
	}
	defer d.bus.Unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Decide from the summary that is sent: a status read after the flush
	// can already be terminal while the client was told "running", and the
	// stream would close without the study_done and final summary frames.
	opening := m.Summary()
	writeSSE(w, "summary", opening)
	flush(fl)
	if terminalStatus(opening.Status) {
		// Nothing further will happen this daemon lifetime; close rather
		// than hold an idle stream open.
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.Events():
			if !open {
				return // daemon shutdown: bus closed after the runners drained
			}
			if ev.Study != m.ID {
				continue
			}
			writeSSE(w, ev.Kind, ev)
			if ev.Kind == obs.KindStudyDone {
				writeSSE(w, "summary", m.Summary())
				flush(fl)
				return
			}
			flush(fl)
		}
	}
}

// flush forces buffered SSE frames onto the wire. http.Flusher.Flush has
// no error return; a gone client surfaces through the request context.
func flush(fl http.Flusher) {
	fl.Flush() //lint:ignore err-drop http.Flusher.Flush returns nothing
}

// writeSSE emits one Server-Sent Events frame. Write errors surface on
// the next frame's Flush (the client is gone; the request context ends
// the stream).
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	_, _ = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func (d *Daemon) handleWorkers(w http.ResponseWriter, r *http.Request) {
	// The daemon stamp lets the router's fleet-wide /workers view
	// attribute each registry without guessing from the backend URL.
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"daemon": d.cfg.Name, "workers": d.fleet.Workers()})
}

// handleWorkerUpsert serves both registration and heartbeat: the payload
// is the full WorkerInfo either way, so dropped or restarted workers
// re-admit themselves on their next beat.
func (d *Daemon) handleWorkerUpsert(w http.ResponseWriter, r *http.Request) {
	var info executor.WorkerInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		daemon.WriteError(w, http.StatusBadRequest, err)
		return
	}
	fresh, err := d.fleet.Upsert(info)
	if err != nil {
		daemon.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if fresh {
		d.cfg.Logf("studyd: worker %s joined (%s, %d slots)", info.Name, info.URL, info.Slots)
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "fleet": d.fleet.Stats()})
}

func (d *Daemon) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	var info executor.WorkerInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		daemon.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if d.fleet.Remove(info.Name) {
		d.cfg.Logf("studyd: worker %s left", info.Name)
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "fleet": d.fleet.Stats()})
}
