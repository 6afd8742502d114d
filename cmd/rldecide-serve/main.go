// Command rldecide-serve runs studyd, the resumable study-execution
// service: a daemon that accepts study submissions over HTTP, runs their
// trials on a shared bounded worker pool, journals every finished trial,
// and serves live Pareto rankings while campaigns execute.
//
// Usage:
//
//	rldecide-serve [-addr :8080] [-dir studyd-state] [-workers 4]
//	               [-exec local|fleet] [-name NAME]
//	               [-token TOKEN] [-tokens tenant=token:slots,...]
//	               [-journal-max-bytes N] [-trace-max-bytes N]
//	               [-drain 30s] [-trace] [-analysis]
//	               [-debug-addr 127.0.0.1:6060]
//
// With -exec fleet the daemon executes no trials itself: it dispatches
// them to rldecide-worker daemons that register over HTTP and stay live
// via heartbeats (see docs/workerd.md). -token guards study submission and
// the worker endpoints with a static bearer token; -tokens configures
// per-tenant bearer tokens with optional slot quotas instead (both may be
// set — the single token stays valid as the anonymous tenant).
//
// -name gives the daemon a shard identity for multi-daemon deployments
// behind rldecide-router: study IDs gain a <name>- prefix, journal
// ownership manifests are signed with it, and every metric series carries
// a daemon="<name>" label (see docs/sharding.md). Leave it empty for the
// single-daemon layout, which is unchanged.
//
// -trace records per-trial causal span trees with deterministic IDs —
// propagated to workers via X-Rldecide-Trace headers, served at
// GET /studies/{id}/spans, and streamed with the daemon's event
// announcements to trace.jsonl in the state directory — so a trial's
// latency decomposes into queue wait, dispatch RTT, objective wall time,
// and journal append (see docs/observability.md). -analysis journals the
// trajectories of locally executed trials (one <id>.trajectories.jsonl
// per study) for the decision-analysis endpoints and rldecide-analyze;
// like tracing, it never changes trial results (see docs/analysis.md).
// -journal-max-bytes and -trace-max-bytes cap journal/trace file sizes,
// rotating into numbered segments (0 = unbounded). -debug-addr serves the pprof suite and a
// /metrics exposition on a second listener, kept separate so profiling
// endpoints never share the public address (see docs/observability.md).
//
// The state directory holds one <id>.spec.json and one <id>.trials.jsonl
// per study (plus rotated segments and ownership manifests). Killing the
// daemon (SIGINT/SIGTERM, or a crash) never loses finished trials: on the
// next start it repairs torn journal tails, replays the journals, and
// resumes every unfinished campaign exactly where it stopped,
// re-executing only trials that never completed.
//
// API:
//
//	GET  /healthz              liveness + pool occupancy
//	GET  /metrics              Prometheus text-format exposition
//	GET  /studies/{id}/events  SSE stream of live study events
//	GET  /studies              all studies
//	POST /studies              submit a study spec (JSON)
//	GET  /studies/{id}         one study's summary
//	GET  /studies/{id}/trials  finished trials so far
//	GET  /studies/{id}/front   current Pareto ranking
//	GET  /studies/{id}/spans   per-trial causal span tree (see -trace)
//	GET  /studies/{id}/analysis/{kind}
//	                           decision-analysis report (traces |
//	                           attribution | counterfactuals)
//	POST /studies/{id}/cancel  stop a study (resumable later)
//	POST /studies/{id}/adopt   take ownership of a stranded study
//	GET  /workers              live fleet members
//	POST /workers/register     add a worker to the fleet
//	POST /workers/heartbeat    refresh a worker
//	POST /workers/deregister   remove a worker
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/studyd"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dir        = flag.String("dir", "studyd-state", "state directory (specs + trial journals)")
		workers    = flag.Int("workers", 4, "local executor slots (max concurrent trials across studies)")
		exec       = flag.String("exec", studyd.ExecLocal, "trial executor: local (in-process) or fleet (remote workers)")
		name       = flag.String("name", "", "shard identity for multi-daemon deployments (prefixes study IDs, labels metrics)")
		token      = flag.String("token", "", "bearer token required on submissions and worker endpoints")
		tokens     = flag.String("tokens", "", "per-tenant bearer tokens: tenant=token[:slots],... (slots cap concurrent studies)")
		journalMax = flag.Int64("journal-max-bytes", 0, "rotate trial journals into segments past this size (0 = unbounded)")
		traceMax   = flag.Int64("trace-max-bytes", 0, "rotate the trace stream past this size (0 = unbounded)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		trace      = flag.Bool("trace", false, "record per-trial causal span trees (served at /studies/{id}/spans, streamed to trace.jsonl)")
		analyze    = flag.Bool("analysis", false, "journal trial trajectories for the decision-analysis endpoints")
		debugAddr  = flag.String("debug-addr", "", "optional second listener for pprof + /metrics (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	tenants, err := daemon.ParseTenants(*tokens)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-serve: %v\n", err)
		os.Exit(1)
	}
	d, err := studyd.New(studyd.Config{
		Dir:             *dir,
		Name:            *name,
		Workers:         *workers,
		Exec:            *exec,
		Token:           *token,
		Auth:            daemon.NewAuth(*token, tenants),
		Trace:           *trace,
		Analysis:        *analyze,
		JournalMaxBytes: *journalMax,
		TraceMaxBytes:   *traceMax,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-serve: %v\n", err)
		os.Exit(1)
	}
	d.Start()

	daemon.StartDebug(*debugAddr, d.Registry())

	ctx, stop := daemon.SignalContext()
	defer stop()
	if err := d.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-serve: %v\n", err)
		os.Exit(1)
	}
}
