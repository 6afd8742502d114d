// Package obs is the determinism-taint fixture's metrics registry: its
// import path contains the internal/obs segment, so Value() reads inside
// it (the /metrics serving path) are exempt, while reads anywhere else
// are schedule-dependent taint sources.
package obs

import "sync/atomic"

// Counter mirrors the real obs.Counter shape.
type Counter struct{ v atomic.Uint64 }

// Inc bumps the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the live count — the taint source outside this package.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a second instrument with a Value method: the rule taints a
// Value read on any internal/obs type, not on Counter alone.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the latest value.
func (g *Gauge) Set(x uint64) { g.bits.Store(x) }

// Value reads the live gauge — also a source outside this package.
func (g *Gauge) Value() uint64 { return g.bits.Load() }

// Render is the serving path: reads here are sanctioned, so this file
// must stay finding-free even though it calls Value.
func Render(c *Counter, g *Gauge) []uint64 {
	return []uint64{c.Value(), g.Value()}
}
