// Package cluster is the virtual-time cluster simulator standing in for
// the paper's physical testbed (2 nodes, Intel Xeon W-2102, 1 Gbps
// Ethernet). Training backends execute their real computation in ordinary
// Go, but post the *modeled* cost of every phase — environment steps,
// learner updates, synchronization barriers, network transfers — to this
// simulator, which maintains a per-node virtual clock and integrates CPU
// energy through a power curve. "Computation Time" and "Power Consumption"
// in the reproduced evaluation are read from here.
package cluster

import (
	"fmt"
	"math"

	"rldecide/internal/power"
)

// Config describes the simulated cluster.
type Config struct {
	Nodes         int
	CoresPerNode  int
	LinkBandwidth float64 // bytes/second (1 Gbps Ethernet ≈ 125e6)
	LinkLatency   float64 // seconds one-way
	CPU           power.Curve
}

// Paper returns the paper's testbed: 2 nodes × 4 cores, 1 Gbps switch.
func Paper() Config {
	return Config{
		Nodes:         2,
		CoresPerNode:  4,
		LinkBandwidth: 125e6,
		LinkLatency:   100e-6,
		CPU:           power.XeonW2102(),
	}
}

// node tracks one machine's virtual clock and energy ledger.
type node struct {
	clock    float64
	meter    *power.Meter
	busyCore float64 // busy core-seconds, for utilization reporting
}

// Sim is the cluster simulator. It is not safe for concurrent use: the
// training backends drive it from their orchestration loop.
type Sim struct {
	cfg   Config
	nodes []*node
}

// New returns a simulator over cfg. It panics on non-positive dimensions
// (programmer error in experiment setup).
func New(cfg Config) *Sim {
	if cfg.LinkBandwidth <= 0 {
		cfg.LinkBandwidth = 125e6
	}
	s := &Sim{cfg: cfg}
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic(fmt.Sprintf("cluster: bad config %+v", cfg))
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &node{meter: power.NewMeter(cfg.CPU)})
	}
	return s
}

// Nodes returns the node count.
func (s *Sim) Nodes() int { return len(s.nodes) }

// Config returns the simulated cluster configuration.
func (s *Sim) Config() Config { return s.cfg }

func (s *Sim) node(i int) *node {
	if i < 0 || i >= len(s.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", i, len(s.nodes)))
	}
	return s.nodes[i]
}

// Run executes seconds of wall time on cores parallel cores of node n:
// the node's clock advances by seconds and energy is accounted at
// utilization cores/CoresPerNode. cores is capped at the node size.
func (s *Sim) Run(n, cores int, seconds float64) {
	if seconds < 0 {
		panic("cluster: negative duration")
	}
	nd := s.node(n)
	if cores < 1 {
		cores = 1
	}
	if cores > s.cfg.CoresPerNode {
		cores = s.cfg.CoresPerNode
	}
	u := float64(cores) / float64(s.cfg.CoresPerNode)
	nd.meter.Add(u, seconds)
	nd.busyCore += float64(cores) * seconds
	nd.clock += seconds
}

// Idle advances node n's clock by seconds at idle power.
func (s *Sim) Idle(n int, seconds float64) {
	if seconds < 0 {
		panic("cluster: negative duration")
	}
	nd := s.node(n)
	nd.meter.Add(0, seconds)
	nd.clock += seconds
}

// Transfer ships bytes from node src to node dst over the link and returns
// the transfer duration. Both nodes first synchronize to the later of the
// two clocks (the earlier one idles), then spend the transfer time with
// one core busy handling I/O. Transfers within a node are free.
func (s *Sim) Transfer(src, dst int, bytes int64) float64 {
	if src == dst {
		return 0
	}
	a, b := s.node(src), s.node(dst)
	start := math.Max(a.clock, b.clock)
	s.syncTo(src, start)
	s.syncTo(dst, start)
	d := s.cfg.LinkLatency + float64(bytes)/s.cfg.LinkBandwidth
	a.meter.Add(1/float64(s.cfg.CoresPerNode), d)
	b.meter.Add(1/float64(s.cfg.CoresPerNode), d)
	a.busyCore += d
	b.busyCore += d
	a.clock = start + d
	b.clock = start + d
	return d
}

// Broadcast ships bytes from src to every other node, serialized on src's
// link (as a parameter-server weight broadcast would be), and returns the
// total duration.
func (s *Sim) Broadcast(src int, bytes int64) float64 {
	total := 0.0
	for i := range s.nodes {
		if i != src {
			total += s.Transfer(src, i, bytes)
		}
	}
	return total
}

// syncTo advances node n to time t at idle power (no-op if already past).
func (s *Sim) syncTo(n int, t float64) {
	nd := s.node(n)
	if t > nd.clock {
		nd.meter.Add(0, t-nd.clock)
		nd.clock = t
	}
}

// Barrier synchronizes all node clocks to the maximum, idling the
// laggards, and returns the barrier time.
func (s *Sim) Barrier() float64 {
	t := s.Time()
	for i := range s.nodes {
		s.syncTo(i, t)
	}
	return t
}

// Time returns the cluster's virtual time (the latest node clock).
func (s *Sim) Time() float64 {
	t := 0.0
	for _, nd := range s.nodes {
		if nd.clock > t {
			t = nd.clock
		}
	}
	return t
}

// Clock returns node n's own virtual clock.
func (s *Sim) Clock(n int) float64 { return s.node(n).clock }

// Energy returns the total energy accounted so far in joules, after
// charging idle power to every node up to the current cluster time (so a
// finished run's figure includes laggards' idle draw).
func (s *Sim) Energy() float64 {
	s.Barrier()
	e := 0.0
	for _, nd := range s.nodes {
		e += nd.meter.Joules()
	}
	return e
}

// NodeStats reports node n's clock, busy core-seconds and energy.
func (s *Sim) NodeStats(n int) (clock, busyCoreSeconds, joules float64) {
	nd := s.node(n)
	return nd.clock, nd.busyCore, nd.meter.Joules()
}

// Utilization returns node n's mean core utilization so far.
func (s *Sim) Utilization(n int) float64 {
	nd := s.node(n)
	if nd.clock == 0 {
		return 0
	}
	return nd.busyCore / (nd.clock * float64(s.cfg.CoresPerNode))
}
