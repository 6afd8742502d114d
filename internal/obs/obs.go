// Package obs is the observability layer: a zero-dependency metrics
// registry with Prometheus text-format exposition, an in-process event
// bus, and a per-trial span tracer emitting a JSONL trace stream. Both
// daemons (rldecide-serve, rldecide-worker) serve the registry at
// GET /metrics; the bus feeds the tracer and the daemon's SSE push
// endpoint.
//
// The hard constraint the package is built around is the replay contract:
// observability must never perturb campaign results. Every instrument is
// off the result path — counters and histograms are atomic updates that
// feed exposition only, bus publication never blocks a producer (slow
// subscribers drop events, counted), and trace records carry wall-clock
// timestamps that are explicitly informational. Wall-clock reads go only
// through the power.Stopwatch seam; internal/obs and internal/power are
// the two lint-sanctioned wall-clock sites (see the nondeterm-time rule).
//
// Hot-path instrumentation (environment steps, nn passes, tensor kernel
// dispatch, journal appends) must stay allocation-free: Counter.Add,
// Histogram.Observe and Bus.Publish perform zero heap
// allocations (gated by alloc_test.go), so the steady-state
// zero-allocation training loop keeps its AllocsPerRun == 0 contract with
// observability enabled.
package obs

// Default is the process-wide registry. Library packages register their
// instruments here at init; daemons serve it (plus their own per-daemon
// collector registries) at GET /metrics.
var Default = NewRegistry()
