package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"rldecide/internal/power"
)

func flat() power.Curve {
	return power.MustCurve([]power.Point{{Util: 0, Watts: 10}, {Util: 1, Watts: 42}})
}

func newSim(nodes, cores int) *Sim {
	return New(Config{Nodes: nodes, CoresPerNode: cores, LinkBandwidth: 125e6, LinkLatency: 1e-4, CPU: flat()})
}

func TestRunAdvancesClockAndEnergy(t *testing.T) {
	s := newSim(1, 4)
	s.Run(0, 4, 100)
	if s.Time() != 100 {
		t.Fatalf("Time=%v want 100", s.Time())
	}
	if e := s.Energy(); math.Abs(e-4200) > 1e-9 {
		t.Fatalf("Energy=%v want 4200 (42W x 100s)", e)
	}
	if u := s.Utilization(0); math.Abs(u-1) > 1e-12 {
		t.Fatalf("Utilization=%v want 1", u)
	}
}

func TestPartialUtilization(t *testing.T) {
	s := newSim(1, 4)
	s.Run(0, 2, 100)
	// 10 + 32*(0.5) = 26 W on the linear curve.
	if e := s.Energy(); math.Abs(e-2600) > 1e-9 {
		t.Fatalf("Energy=%v want 2600", e)
	}
	if u := s.Utilization(0); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("util %v", u)
	}
}

func TestRunCapsCoresAtNodeSize(t *testing.T) {
	s := newSim(1, 2)
	s.Run(0, 8, 50) // over-subscription is capped at node size
	if u := s.Utilization(0); u != 1 {
		t.Fatalf("util %v want 1", u)
	}
	if e := s.Energy(); math.Abs(e-2100) > 1e-9 {
		t.Fatalf("Energy=%v want 2100 (42W x 50s)", e)
	}
}

func TestIdleDrawDoublesWithNodes(t *testing.T) {
	// Same work on 1 vs 2 nodes: the second node burns idle power,
	// reproducing the paper's observation that multi-node deployments pay
	// an energy floor.
	oneNode := newSim(1, 4)
	oneNode.Run(0, 4, 100)
	twoNodes := newSim(2, 4)
	twoNodes.Run(0, 4, 100)
	d := twoNodes.Energy() - oneNode.Energy()
	if math.Abs(d-1000) > 1e-9 { // 10 W idle x 100 s
		t.Fatalf("idle delta=%v want 1000", d)
	}
}

func TestTransferTiming(t *testing.T) {
	s := newSim(2, 4)
	d := s.Transfer(0, 1, 125_000_000) // 1 s at 1 Gbps
	if math.Abs(d-1.0001) > 1e-9 {
		t.Fatalf("transfer duration=%v want 1.0001", d)
	}
	if math.Abs(s.Clock(0)-s.Clock(1)) > 1e-12 {
		t.Fatal("transfer must synchronize both endpoints")
	}
	if s.Transfer(0, 0, 1000) != 0 {
		t.Fatal("intra-node transfer should be free")
	}
}

func TestTransferWaitsForLaggard(t *testing.T) {
	s := newSim(2, 4)
	s.Run(0, 4, 10) // node 0 at t=10, node 1 at t=0
	s.Transfer(0, 1, 0)
	if s.Clock(1) < 10 {
		t.Fatalf("dst should have idled to t=10, got %v", s.Clock(1))
	}
}

func TestBarrierIdlesLaggards(t *testing.T) {
	s := newSim(2, 4)
	s.Run(0, 4, 100)
	tb := s.Barrier()
	if tb != 100 || s.Clock(1) != 100 {
		t.Fatalf("barrier=%v clock1=%v", tb, s.Clock(1))
	}
	// node 1 idled 100 s at 10 W; node 0 ran 100 s at 42 W.
	if e := s.Energy(); math.Abs(e-5200) > 1e-9 {
		t.Fatalf("Energy=%v want 5200", e)
	}
}

func TestBroadcastSerializes(t *testing.T) {
	s := New(Config{Nodes: 3, CoresPerNode: 4, LinkBandwidth: 1e6, LinkLatency: 0, CPU: flat()})
	d := s.Broadcast(0, 1e6) // 1 s per destination, 2 destinations
	if math.Abs(d-2) > 1e-9 {
		t.Fatalf("broadcast=%v want 2", d)
	}
	if math.Abs(s.Clock(0)-2) > 1e-9 {
		t.Fatalf("src clock=%v want 2", s.Clock(0))
	}
}

func TestEnergyIncludesTrailingIdle(t *testing.T) {
	s := newSim(2, 4)
	s.Run(0, 1, 50)
	e := s.Energy() // charges node 1 with 50 s idle
	if e < 50*10*2 {
		t.Fatalf("Energy=%v should include both nodes' floor", e)
	}
	_, busy, joules := s.NodeStats(1)
	if busy != 0 || joules != 500 {
		t.Fatalf("node1 stats busy=%v joules=%v", busy, joules)
	}
}

func TestMoreCoresFasterButMorePower(t *testing.T) {
	// The paper's core-count trade-off: 4 cores finish in half the time of
	// 2 cores and use *less total energy* here because the idle floor is
	// paid for less time — matching the paper's observation that using all
	// cores also helped energy.
	work := 1000.0
	two := newSim(1, 4)
	two.Run(0, 2, work/2)
	four := newSim(1, 4)
	four.Run(0, 4, work/4)
	if !(four.Time() < two.Time()) {
		t.Fatal("4 cores should be faster")
	}
	if !(four.Energy() < two.Energy()) {
		t.Fatalf("4 cores should cost less energy on this curve: %v vs %v", four.Energy(), two.Energy())
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newSim(2, 4)
		prev := 0.0
		for _, op := range ops {
			switch op % 4 {
			case 0:
				s.Run(int(op)%2, 1+int(op)%4, float64(op%7))
			case 1:
				s.Idle(int(op)%2, float64(op%5))
			case 2:
				s.Transfer(0, 1, int64(op)*1000)
			case 3:
				s.Barrier()
			}
			now := s.Time()
			if now < prev-1e-12 {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	s := newSim(1, 2)
	for name, fn := range map[string]func(){
		"neg-run":   func() { s.Run(0, 1, -1) },
		"neg-idle":  func() { s.Idle(0, -1) },
		"bad-node":  func() { s.Run(5, 1, 1) },
		"bad-cfg":   func() { New(Config{}) },
		"bad-node2": func() { s.Clock(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := Paper()
	if cfg.Nodes != 2 || cfg.CoresPerNode != 4 {
		t.Fatalf("paper cluster wrong: %+v", cfg)
	}
	if cfg.LinkBandwidth != 125e6 {
		t.Fatal("1 Gbps expected")
	}
	s := New(cfg)
	if s.Nodes() != 2 || s.Config().CoresPerNode != 4 {
		t.Fatal("accessors wrong")
	}
	if s.Config().Nodes != 2 {
		t.Fatal("Config accessor wrong")
	}
}
