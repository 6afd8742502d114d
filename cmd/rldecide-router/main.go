// Command rldecide-router fronts a fleet of rldecide-serve daemons as one
// control plane: it places study submissions across the daemons by
// consistent hash with bounded loads, proxies per-study reads (summaries,
// trials, fronts, SSE event streams) and cancels to the owning daemon,
// aggregates fleet-wide /studies, /workers, and /metrics views, and
// re-homes the studies of a dead daemon onto the survivors through the
// journal-ownership handoff (see docs/sharding.md).
//
// Usage:
//
//	rldecide-router -backends alpha=http://h1:8080,beta=http://h2:8080
//	                [-addr :8079] [-token TOKEN] [-router-token TOKEN]
//	                [-reconcile 5s] [-drain 10s]
//	                [-debug-addr 127.0.0.1:6062]
//
// Backend names must match each daemon's -name flag — that name is the
// shard identity in study IDs, ownership manifests, and metric labels.
// -token is the bearer the router itself presents to the daemons for the
// adopt calls it originates during re-homing (and must be accepted by all
// of them); client submissions pass the caller's own Authorization header
// through, so per-tenant tokens and quotas are enforced by the owning
// daemon. -router-token guards the router's own mutating endpoint
// (POST /rehome). A -reconcile interval > 0 runs the failure-detection +
// re-homing pass continuously; 0 leaves it to explicit POST /rehome.
//
// The router keeps no durable state: the study→daemon directory is a
// cache rebuilt from fleet-wide list calls, and ownership truth lives in
// the daemons' journal manifests.
//
// API:
//
//	GET  /healthz              router + per-backend liveness
//	GET  /metrics              fleet-wide rollup, daemon-labeled
//	GET  /studies              all studies across the fleet
//	POST /studies              place and forward a submission
//	GET  /studies/{id}         proxied to the owning daemon
//	GET  /studies/{id}/...     trials, front, SSE events — proxied
//	POST /studies/{id}/cancel  proxied to the owning daemon
//	GET  /workers              every daemon's worker registry
//	POST /rehome               probe the fleet, re-home stranded studies
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/shard"
)

func main() {
	var (
		addr        = flag.String("addr", ":8079", "listen address")
		backends    = flag.String("backends", "", "serve daemons to route across: name=url,name2=url2,... (names must match each daemon's -name)")
		token       = flag.String("token", "", "bearer the router presents to the daemons for adopt calls it originates")
		routerToken = flag.String("router-token", "", "bearer token required on the router's own mutating endpoints (POST /rehome)")
		reconcile   = flag.Duration("reconcile", 5*time.Second, "failure-detection + re-homing interval (0 disables the background pass)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		debugAddr   = flag.String("debug-addr", "", "optional second listener for pprof + /metrics (e.g. 127.0.0.1:6062)")
	)
	flag.Parse()

	fleet, err := shard.ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-router: %v\n", err)
		os.Exit(1)
	}
	rt, err := shard.New(shard.Config{
		Backends: fleet,
		Auth:     daemon.NewAuth(*routerToken, nil),
		Token:    *token,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-router: %v\n", err)
		os.Exit(1)
	}

	daemon.StartDebug(*debugAddr, rt.Registry())

	ctx, stop := daemon.SignalContext()
	defer stop()

	if *reconcile > 0 {
		go func() {
			ticker := time.NewTicker(*reconcile)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					rt.Reconcile(ctx)
				}
			}
		}()
	}

	if err := rt.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-router: %v\n", err)
		os.Exit(1)
	}
}
