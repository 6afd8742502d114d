package studyd

import (
	"rldecide/internal/obs"
)

// Process-wide studyd instruments (exposed at GET /metrics). Counters and
// histograms live here in obs.Default; per-daemon state gauges (study
// counts by status, executor occupancy, queue depth) are built per daemon
// in newRegistry so tests running several daemons in one process never
// collide.
var (
	metricSubmitted = obs.Default.NewCounter("rldecide_studyd_studies_submitted_total",
		"Studies accepted via Submit (HTTP or embedded).")
	metricTrialsFinished = obs.Default.NewCounter("rldecide_studyd_trials_finished_total",
		"Trials completed through the daemon's executor (any status).")
	metricTrialErrors = obs.Default.NewCounter("rldecide_studyd_trial_errors_total",
		"Completed trials whose objective reported a deterministic failure.")
	metricTrialSeconds = obs.Default.NewHistogram("rldecide_studyd_trial_seconds",
		"Wall-clock trial latency through the executor (queueing + evaluation).",
		obs.DurationBuckets)
)

// studyStatuses is the fixed label order for the by-status study gauge.
var studyStatuses = []Status{StatusPending, StatusRunning, StatusDone, StatusInterrupted, StatusFailed}

// newRegistry builds the daemon's own collector registry: gauges that
// read daemon state at scrape time. Served at GET /metrics alongside
// obs.Default.
func (d *Daemon) newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.NewGaugeFunc("rldecide_studyd_studies",
		"Managed studies by lifecycle status.", obs.StampDaemon(d.cfg.Name, func() []obs.Sample {
			counts := make(map[Status]int, len(studyStatuses))
			for _, m := range d.store.List() {
				counts[m.Status()]++
			}
			out := make([]obs.Sample, len(studyStatuses))
			for i, st := range studyStatuses {
				out[i] = obs.Sample{Labels: [][2]string{{"status", string(st)}}, Value: float64(counts[st])}
			}
			return out
		}))
	reg.NewGaugeFunc("rldecide_studyd_tenant_active_studies",
		"Active (pending or running) studies per configured tenant.", obs.StampDaemon(d.cfg.Name, func() []obs.Sample {
			tenants := d.cfg.Auth.Tenants()
			if len(tenants) == 0 {
				return nil
			}
			active := d.store.ActiveByTenant()
			out := make([]obs.Sample, len(tenants))
			for i, t := range tenants {
				out[i] = obs.Sample{Labels: [][2]string{{"tenant", t.Name}}, Value: float64(active[t.Name])}
			}
			return out
		}))
	reg.NewGaugeFunc("rldecide_studyd_exec_slots",
		"Executor trial capacity (local slots, or summed fleet slots).", obs.StampDaemon(d.cfg.Name, func() []obs.Sample {
			return []obs.Sample{{Value: float64(d.exec.Stats().Cap)}}
		}))
	reg.NewGaugeFunc("rldecide_studyd_exec_in_use",
		"Trials executing right now.", obs.StampDaemon(d.cfg.Name, func() []obs.Sample {
			return []obs.Sample{{Value: float64(d.exec.Stats().InUse)}}
		}))
	reg.NewGaugeFunc("rldecide_studyd_queue_depth",
		"Proposed trials waiting for an executor lease.", obs.StampDaemon(d.cfg.Name, func() []obs.Sample {
			queued := d.inflight.Load() - int64(d.exec.Stats().InUse)
			if queued < 0 {
				queued = 0
			}
			return []obs.Sample{{Value: float64(queued)}}
		}))
	reg.NewCounterFunc("rldecide_bus_dropped_total",
		"Event-bus events dropped per subscriber (tracer, SSE streams) because its buffer was full.",
		obs.StampDaemon(d.cfg.Name, func() []obs.Sample { return d.bus.DropSamples() }))
	d.fleet.RegisterMetrics(reg, d.cfg.Name)
	return reg
}
