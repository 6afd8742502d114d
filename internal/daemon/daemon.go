// Package daemon is the shared kernel every rldecide daemon embeds:
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
// every tier of the stack — serving daemons, workers, routers — can embed
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

// Core is the embeddable daemon kernel: identity, logging and auth. The
// zero value is usable (anonymous daemon, no auth, log.Printf).
type Core struct {
	// Name identifies the daemon instance. Sharded deployments set it
	// (it namespaces metric series with a `daemon` label and signs
	// journal-ownership manifests); single-daemon deployments may leave
	// it empty for backward-compatible unlabeled series.
	Name string
	// Auth guards mutating endpoints. Nil or disabled means open.
	Auth *Auth
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// Printf logs through the configured sink (default log.Printf).
func (c *Core) Printf(format string, args ...any) {
	if c == nil || c.Logf == nil {
		log.Printf(format, args...)
		return
	}
	c.Logf(format, args...)
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM — the
// shared shutdown trigger of every daemon main.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}

// StartDebug serves the pprof suite plus the merged metric registries on
// addr from a background goroutine — the -debug-addr listener both
// daemons used to wire by hand. A listener failure is logged, never
// fatal: profiling must not take the daemon down. No-op when addr is "".
func (c *Core) StartDebug(addr string, regs ...*obs.Registry) {
	if addr == "" {
		return
	}
	srv := &http.Server{Addr: addr, Handler: obs.DebugMux(regs...)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			c.Printf("daemon: debug listener %s: %v", addr, err)
		}
	}()
	c.Printf("daemon: pprof + metrics on %s", addr)
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
