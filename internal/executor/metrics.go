package executor

import "rldecide/internal/obs"

// Process-wide executor instruments (exposed at GET /metrics). All of them
// are atomic updates off the dispatch result path: they observe scheduling
// and transport, never influence it.
var (
	metricDispatches = obs.Default.NewCounter("rldecide_fleet_dispatches_total",
		"Trial dispatch attempts sent to workers.")
	metricDispatchFailures = obs.Default.NewCounter("rldecide_fleet_dispatch_failures_total",
		"Dispatch attempts that failed (transport error, non-200, bad answer).")
	metricRetries = obs.Default.NewCounter("rldecide_fleet_retries_total",
		"Trials requeued onto another worker after a failed attempt.")
	metricSpecCacheMisses = obs.Default.NewCounter("rldecide_fleet_spec_cache_misses_total",
		"Hash-only dispatches answered 428 (worker lost its cached spec).")
	metricDispatchSeconds = obs.Default.NewHistogram("rldecide_fleet_dispatch_seconds",
		"Wall-clock duration of one dispatch attempt (connection + evaluation).",
		obs.DurationBuckets)
	metricWorkerTrials = obs.Default.NewCounter("rldecide_worker_trials_total",
		"Trials evaluated by this process's worker server.")
	metricWorkerTrialErrors = obs.Default.NewCounter("rldecide_worker_trial_errors_total",
		"Worker-side evaluations that returned an infrastructure error.")
	metricLocalTrials = obs.Default.NewCounter("rldecide_local_trials_total",
		"Trials evaluated by this process's local executor.")
)

// RegisterMetrics adds the fleet's live-state gauges to reg: worker count,
// summed capacity/occupancy, and per-worker slots, in-flight trials, and
// heartbeat ages. State is read at scrape time through the same snapshots
// the /workers endpoint uses, so scraping adds no bookkeeping to the
// dispatch path. Call it once per registry (typically the daemon's own).
// A non-empty daemonLabel stamps every series with daemon="<name>" so a
// router merging several daemons' expositions never collides them; ""
// keeps the single-daemon series names unchanged.
func (f *Fleet) RegisterMetrics(reg *obs.Registry, daemonLabel string) {
	reg.NewGaugeFunc("rldecide_fleet_workers",
		"Live (non-expired) workers in the fleet.", obs.StampDaemon(daemonLabel, func() []obs.Sample {
			return []obs.Sample{{Value: float64(f.Stats().Workers)}}
		}))
	reg.NewGaugeFunc("rldecide_fleet_slots",
		"Summed trial slots of live workers.", obs.StampDaemon(daemonLabel, func() []obs.Sample {
			return []obs.Sample{{Value: float64(f.Stats().Cap)}}
		}))
	reg.NewGaugeFunc("rldecide_fleet_in_flight",
		"Trials currently dispatched across the fleet.", obs.StampDaemon(daemonLabel, func() []obs.Sample {
			return []obs.Sample{{Value: float64(f.Stats().InUse)}}
		}))
	reg.NewGaugeFunc("rldecide_fleet_worker_beat_age_seconds",
		"Seconds since each worker's last heartbeat.", obs.StampDaemon(daemonLabel, f.workerSamples(func(w WorkerStatus) float64 {
			return w.BeatAgeSec
		})))
	reg.NewGaugeFunc("rldecide_fleet_worker_in_flight",
		"Trials currently dispatched to each worker.", obs.StampDaemon(daemonLabel, f.workerSamples(func(w WorkerStatus) float64 {
			return float64(w.InFlight)
		})))
	reg.NewGaugeFunc("rldecide_fleet_worker_slots",
		"Each worker's registered slot capacity.", obs.StampDaemon(daemonLabel, f.workerSamples(func(w WorkerStatus) float64 {
			return float64(w.Slots)
		})))
}

// workerSamples adapts a per-worker field into a labeled collect func.
// Workers() returns name-sorted statuses, so sample order is stable.
func (f *Fleet) workerSamples(field func(WorkerStatus) float64) func() []obs.Sample {
	return func() []obs.Sample {
		workers := f.Workers()
		out := make([]obs.Sample, len(workers))
		for i, w := range workers {
			out[i] = obs.Sample{Labels: [][2]string{{"worker", w.Name}}, Value: field(w)}
		}
		return out
	}
}
