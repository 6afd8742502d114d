// Command rldecide-worker is a remote trial executor for rldecide-serve:
// it registers with one or more study daemons running in fleet mode,
// receives trial dispatches ({spec, params, seed}) over HTTP, evaluates
// them against the process-local objective registry, and reports the
// results. Workers are stateless — every dispatch is self-contained — so
// any number of them can join, crash, restart and re-register
// mid-campaign without touching the daemons' journals.
//
// Usage:
//
//	rldecide-worker -serve http://daemon:8080[,http://daemon2:8081]
//	                [-addr 127.0.0.1:9090] [-advertise URL] [-name NAME]
//	                [-slots 2] [-token TOKEN] [-heartbeat 3s] [-drain 10s]
//	                [-debug-addr 127.0.0.1:6061]
//
// -serve takes a comma-separated list of daemon base URLs: in a sharded
// deployment behind rldecide-router one worker process can serve every
// shard, registering with (and heartbeating to) each daemon
// independently (see docs/sharding.md).
//
// The worker serves:
//
//	GET  /healthz  liveness + in-flight trial count
//	GET  /metrics  Prometheus text-format exposition
//	POST /run      evaluate one trial request
//
// -debug-addr adds a second listener with the pprof suite and the same
// /metrics exposition, kept off the dispatch address.
//
// -advertise is the URL the daemons dial back; it defaults to
// http://127.0.0.1:<port of -addr>, so set it explicitly when daemon and
// worker are on different hosts. SIGINT/SIGTERM deregisters from every
// daemon and drains in-flight trials before exiting; a kill -9 is also
// safe — the daemons time the worker out and requeue its trials.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rldecide/internal/daemon"
	"rldecide/internal/executor"
	"rldecide/internal/studyd"
)

func main() {
	var (
		serve     = flag.String("serve", "http://127.0.0.1:8080", "comma-separated base URLs of the rldecide-serve daemons")
		addr      = flag.String("addr", "127.0.0.1:9090", "listen address for trial dispatches")
		advertise = flag.String("advertise", "", "URL the daemons dial back (default http://127.0.0.1:<port>)")
		name      = flag.String("name", "", "worker name for registration and journal attribution (default worker-<pid>)")
		slots     = flag.Int("slots", 2, "concurrent-trial capacity")
		token     = flag.String("token", "", "bearer token shared with the daemons")
		heartbeat = flag.Duration("heartbeat", 3*time.Second, "heartbeat interval")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		debugAddr = flag.String("debug-addr", "", "optional second listener for pprof + /metrics (e.g. 127.0.0.1:6061)")
	)
	flag.Parse()

	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if *advertise == "" {
		hostport := *addr
		if strings.HasPrefix(hostport, ":") {
			hostport = "127.0.0.1" + hostport
		}
		*advertise = "http://" + hostport
	}
	var targets []string
	for _, base := range strings.Split(*serve, ",") {
		if base = strings.TrimSpace(base); base != "" {
			targets = append(targets, base)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "rldecide-worker: -serve needs at least one daemon URL")
		os.Exit(1)
	}

	daemon.StartDebug(*debugAddr)

	ws := &executor.Server{Name: *name, Eval: studyd.EvaluateRequest, Token: *token, Logf: log.Printf}
	ctx, stop := daemon.SignalContext()
	defer stop()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One registrar per daemon: each registers, heartbeats, and
	// deregisters independently, so one shard restarting never disturbs
	// the worker's membership in the others.
	errs := make(chan error, len(targets))
	info := executor.WorkerInfo{Name: *name, URL: *advertise, Slots: *slots}
	for _, base := range targets {
		reg := &executor.Registrar{
			Daemon:   base,
			Info:     info,
			Token:    *token,
			Interval: *heartbeat,
			Logf:     log.Printf,
		}
		go func() { errs <- reg.Run(runCtx) }()
	}
	// A registrar failing while the worker is live (invalid registration)
	// is fatal; ctx-driven exits are clean. The watcher also waits out
	// every deregister before the process reports.
	watch := make(chan error, 1)
	go func() {
		var fatal error
		for i := 0; i < len(targets); i++ {
			if err := <-errs; err != nil && runCtx.Err() == nil && fatal == nil {
				fatal = err
				cancel()
			}
		}
		watch <- fatal
	}()

	log.Printf("rldecide-worker: %s serving on %s (%d slots), registering with %s",
		*name, *addr, *slots, strings.Join(targets, ", "))
	err := daemon.Run(runCtx, *addr, ws.Handler(), *drain, nil)
	cancel() // a dead listener must also stop the registrars
	if regErr := <-watch; err == nil {
		err = regErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-worker: %v\n", err)
		os.Exit(1)
	}
}
