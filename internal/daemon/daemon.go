// Package daemon is the shared kernel every rldecide daemon builds on:
// bearer-token authentication (single-token or per-tenant with slot
// quotas), the JSON error/response helpers of the HTTP APIs, the debug
// listener (pprof + metrics) wiring, and the serve-then-gracefully-drain
// lifecycle. cmd/rldecide-serve,
// cmd/rldecide-worker and cmd/rldecide-router all build on this package
// instead of carrying their own copies of the plumbing, which is what
// makes adding another daemon to the control plane cheap.
//
// The kernel deliberately knows nothing about studies, trials or
// dispatch: it depends only on internal/obs (debug mux, registries), so
// every tier of the stack — serving daemons, workers, routers — can import
// it without import cycles.
package daemon

import (
	"context"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"rldecide/internal/obs"
)

// SignalContext returns a context cancelled on SIGINT/SIGTERM — the
// shared shutdown trigger of every daemon main.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}

// StartDebug serves the pprof suite plus the merged metric registries on
// addr from a background goroutine — the -debug-addr listener both
// daemons used to wire by hand. A listener failure is logged, never
// fatal: profiling must not take the daemon down. No-op when addr is "".
func StartDebug(addr string, regs ...*obs.Registry) {
	if addr == "" {
		return
	}
	srv := &http.Server{Addr: addr, Handler: obs.DebugMux(regs...)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("daemon: debug listener %s: %v", addr, err)
		}
	}()
	log.Printf("daemon: pprof + metrics on %s", addr)
}

// Run serves handler on addr until ctx is cancelled, then drains: drain
// (when non-nil) runs first with a grace deadline — cancelling runners,
// closing event buses — followed by the HTTP server's own shutdown. This
// is the lifecycle shape every daemon shares; a listener error surfaces
// immediately.
func Run(ctx context.Context, addr string, handler http.Handler, grace time.Duration, drain func(context.Context) error) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	var err error
	if drain != nil {
		// Drain the daemon first: cancelling its work and closing its
		// event bus ends long-lived streams (SSE) that srv.Shutdown would
		// otherwise wait on for the whole grace period.
		err = drain(shutdownCtx)
	}
	_ = srv.Shutdown(shutdownCtx)
	return err
}
