package airdrop

import (
	"math"
	"testing"

	"rldecide/internal/gym"
)

func TestNewRejectsBadOrder(t *testing.T) {
	cfg := NewConfig()
	cfg.RKOrder = 7
	if _, err := New(cfg, 1); err == nil {
		t.Fatal("RK order 7 should be rejected")
	}
}

func TestDefaultsFilled(t *testing.T) {
	e := MustNew(Config{}, 1)
	cfg := e.Config()
	if cfg.RKOrder != 3 || cfg.AltMax != 1000 || cfg.RewardScale != 100 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if e.Method().Order != 3 {
		t.Fatal("method order mismatch")
	}
}

func TestResetWithinAltitudeLimits(t *testing.T) {
	cfg := NewConfig()
	cfg.AltMin, cfg.AltMax = 30, 1000
	e := MustNew(cfg, 7)
	for i := 0; i < 50; i++ {
		e.Reset()
		alt := e.State()[iAlt]
		if alt < 30 || alt > 1000 {
			t.Fatalf("drop altitude %v outside [30,1000]", alt)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a := MustNew(NewConfig(), 42)
	b := MustNew(NewConfig(), 42)
	oa, ob := a.Reset(), b.Reset()
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed, different reset obs")
		}
	}
	ra := a.Step([]float64{1})
	rb := b.Step([]float64{1})
	for i := range ra.Obs {
		if ra.Obs[i] != rb.Obs[i] {
			t.Fatal("same seed, different step obs")
		}
	}
}

func TestAltitudeMonotonicallyDecreases(t *testing.T) {
	e := MustNew(NewConfig(), 3)
	e.Reset()
	prev := e.State()[iAlt]
	for i := 0; i < 200; i++ {
		res := e.Step([]float64{1})
		alt := e.State()[iAlt]
		if alt >= prev {
			t.Fatalf("altitude did not decrease: %v -> %v", prev, alt)
		}
		prev = alt
		if res.Done {
			return
		}
	}
	t.Fatal("episode never terminated")
}

func TestEpisodeTerminatesWithLandingReward(t *testing.T) {
	e := MustNew(NewConfig(), 5)
	e.Reset()
	for i := 0; i < 500; i++ {
		res := e.Step([]float64{1})
		if res.Done {
			if res.Reward > 0 {
				t.Fatalf("terminal reward must be <= 0: %v", res.Reward)
			}
			if res.Reward != -e.Miss()/e.Config().RewardScale {
				t.Fatalf("reward %v inconsistent with miss %v", res.Reward, e.Miss())
			}
			return
		}
		if res.Reward != 0 {
			t.Fatalf("non-terminal reward must be 0, got %v", res.Reward)
		}
	}
	t.Fatal("episode never terminated")
}

func TestTurnDynamics(t *testing.T) {
	cfg := NewConfig()
	cfg.AltMin, cfg.AltMax = 900, 1000
	e := MustNew(cfg, 11)
	e.Reset()
	psi0 := e.State()[iPsi]
	for i := 0; i < 3; i++ {
		e.Step([]float64{2}) // turn positive
	}
	dPos := angleDiff(e.State()[iPsi], psi0)
	e.Reset()
	psi0 = e.State()[iPsi]
	for i := 0; i < 3; i++ {
		e.Step([]float64{0}) // turn negative
	}
	dNeg := angleDiff(e.State()[iPsi], psi0)
	if dPos <= 0.1 {
		t.Fatalf("action 2 should increase heading, got delta %v", dPos)
	}
	if dNeg >= -0.1 {
		t.Fatalf("action 0 should decrease heading, got delta %v", dNeg)
	}
}

func TestWindCausesDrift(t *testing.T) {
	run := func(windOn bool) float64 {
		cfg := NewConfig()
		cfg.AltMin, cfg.AltMax = 500, 500.0001
		cfg.Wind.Enabled = windOn
		cfg.Wind.Speed = 8
		cfg.Wind.Direction = 0 // wind blowing +x
		cfg.NoiseGain = -1     // keep kinematics comparable
		e := MustNew(cfg, 99)
		e.Reset()
		for i := 0; i < 20; i++ {
			e.Step([]float64{1})
		}
		return e.State()[iPX]
	}
	withWind := run(true)
	noWind := run(false)
	if withWind-noWind < 50 {
		t.Fatalf("8 u/s wind for 20 s should push ~160 units: drift=%v", withWind-noWind)
	}
}

func TestGustsAddVariance(t *testing.T) {
	cfg := NewConfig()
	cfg.Wind.Enabled = true
	cfg.Wind.Gusts = true
	cfg.Wind.GustProb = 1
	cfg.Wind.GustSpeed = 6
	e := MustNew(cfg, 12)
	e.Reset()
	e.Step([]float64{1})
	g := math.Hypot(e.gust[0], e.gust[1])
	if g == 0 {
		t.Fatal("gust with probability 1 did not fire")
	}
}

func TestErrLevelDecreasesWithOrder(t *testing.T) {
	lvl := func(order int) float64 {
		cfg := NewConfig()
		cfg.RKOrder = order
		e := MustNew(cfg, 4)
		e.Reset()
		e.Step([]float64{2})
		return e.ErrLevel()
	}
	e3, e5, e8 := lvl(3), lvl(5), lvl(8)
	if !(e3 > e5 && e5 > e8) {
		t.Fatalf("solver error must fall with order: rk3=%g rk5=%g rk8=%g", e3, e5, e8)
	}
	if e3 == 0 || e8 == 0 {
		t.Fatalf("error estimates should be nonzero: %g %g", e3, e8)
	}
}

func TestStepCostIncreasesWithOrder(t *testing.T) {
	cost := func(order int) float64 {
		cfg := NewConfig()
		cfg.RKOrder = order
		return MustNew(cfg, 1).StepCost()
	}
	c3, c5, c8 := cost(3), cost(5), cost(8)
	if !(c3 < c5 && c5 < c8) {
		t.Fatalf("step cost must grow with order: %v %v %v", c3, c5, c8)
	}
}

func evalPolicy(t *testing.T, cfg Config, seed uint64, episodes int, act func(obs []float64) []float64) float64 {
	t.Helper()
	e := MustNew(cfg, seed)
	total := 0.0
	for ep := 0; ep < episodes; ep++ {
		obs := e.Reset()
		for {
			res := e.Step(act(obs))
			obs = res.Obs
			if res.Done {
				total += res.Reward
				break
			}
		}
	}
	return total / float64(episodes)
}

func TestAutopilotBeatsIdle(t *testing.T) {
	cfg := NewConfig()
	ap := Autopilot{}
	apReward := evalPolicy(t, cfg, 21, 40, ap.Act)
	idle := evalPolicy(t, cfg, 21, 40, func([]float64) []float64 { return []float64{1} })
	if apReward <= idle+0.5 {
		t.Fatalf("autopilot (%v) should clearly beat idle (%v)", apReward, idle)
	}
	if apReward < -2.0 {
		t.Fatalf("autopilot should land in the target region, got %v", apReward)
	}
}

func TestAutopilotBetterWithHighOrder(t *testing.T) {
	// The RK-order accuracy knob: with identical seeds and many episodes,
	// the order-8 solver should let the same controller land at least as
	// precisely as the order-3 solver.
	reward := func(order int) float64 {
		cfg := NewConfig()
		cfg.RKOrder = order
		return evalPolicy(t, cfg, 77, 60, Autopilot{}.Act)
	}
	r3, r8 := reward(3), reward(8)
	if r8 < r3-0.02 {
		t.Fatalf("order 8 (%v) should not land worse than order 3 (%v)", r8, r3)
	}
}

func TestStepAfterDonePanics(t *testing.T) {
	cfg := NewConfig()
	cfg.AltMin, cfg.AltMax = 30, 31
	e := MustNew(cfg, 6)
	e.Reset()
	for i := 0; i < 100; i++ {
		if res := e.Step([]float64{1}); res.Done {
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Step after done should panic")
		}
	}()
	e.Step([]float64{1})
}

func TestMakeImplementsInterfaces(t *testing.T) {
	mk := Make(NewConfig())
	env := mk(5)
	if _, ok := env.(gym.Costed); !ok {
		t.Fatal("airdrop env must implement gym.Costed")
	}
	obs := env.Reset()
	if len(obs) != ObsDim {
		t.Fatalf("obs dim %d want %d", len(obs), ObsDim)
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{math.Pi / 2, 0, math.Pi / 2},
		{0, math.Pi / 2, -math.Pi / 2},
		{3 * math.Pi, 0, math.Pi},
		{0.1, 2 * math.Pi, 0.1},
	}
	for _, c := range cases {
		if got := angleDiff(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("angleDiff(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkStepRK3(b *testing.B) { benchStep(b, 3) }
func BenchmarkStepRK5(b *testing.B) { benchStep(b, 5) }
func BenchmarkStepRK8(b *testing.B) { benchStep(b, 8) }

func benchStep(b *testing.B, order int) {
	cfg := NewConfig()
	cfg.RKOrder = order
	e := MustNew(cfg, 1)
	e.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Step([]float64{1})
		if res.Done {
			e.Reset()
		}
	}
}
