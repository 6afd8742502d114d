package distrib

import (
	"math"
	"testing"

	"rldecide/internal/gym/toy"
	"rldecide/internal/rl/ppo"
	"rldecide/internal/rl/sac"
)

func toyCfg(f Framework, a Algo, nodes, cores int) TrainConfig {
	cfg := TrainConfig{
		Framework:    f,
		Algo:         a,
		Nodes:        nodes,
		Cores:        cores,
		EnvMaker:     toy.MakeSteer1D(),
		TotalSteps:   2000,
		EnvStepCost:  0.046,
		RolloutSteps: 64,
		EvalEpisodes: 10,
		Seed:         42,
	}
	if a == SAC {
		cfg.SACConfig = &sac.Config{StartSteps: 200, Batch: 32, BufferSize: 5000}
	}
	return cfg
}

// TestFactory: Run refuses a framework it has no backend for
// (TestAllBackendsCompletePPO checks each backend reports its own).
func TestFactory(t *testing.T) {
	if _, err := Run(toyCfg("torchbeast", PPO, 1, 2)); err == nil {
		t.Fatal("unknown framework should error")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(TrainConfig{Framework: RLlib, Algo: PPO}); err == nil {
		t.Error("missing env maker should error")
	}
	cfg := toyCfg(StableBaselines, PPO, 2, 4)
	if _, err := Run(cfg); err == nil {
		t.Error("stable-baselines must reject multi-node")
	}
	cfg = toyCfg(TFAgents, PPO, 2, 4)
	if _, err := Run(cfg); err == nil {
		t.Error("tf-agents must reject multi-node")
	}
	cfg = toyCfg(RLlib, Algo("dqn"), 1, 2)
	if _, err := Run(cfg); err == nil {
		t.Error("unknown algo should error")
	}
	cfg = toyCfg(RLlib, PPO, 1, 2)
	cfg.TotalSteps = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero steps should error")
	}
}

func TestAllBackendsCompletePPO(t *testing.T) {
	for _, f := range Frameworks() {
		res, err := Run(toyCfg(f, PPO, 1, 2))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if res.Steps < 2000 {
			t.Errorf("%s: trained %d steps", f, res.Steps)
		}
		if res.TimeSeconds <= 0 || res.EnergyJoules <= 0 {
			t.Errorf("%s: empty virtual accounting %+v", f, res)
		}
		if res.Framework != f || res.Algo != PPO {
			t.Errorf("%s: result echo wrong", f)
		}
		if res.Episodes == 0 || len(res.Curve) == 0 {
			t.Errorf("%s: no learning curve", f)
		}
		if res.MeanUtilization <= 0 || res.MeanUtilization > 1 {
			t.Errorf("%s: utilization %v", f, res.MeanUtilization)
		}
		if res.TimeMinutes() <= 0 || res.EnergyKJ() <= 0 {
			t.Errorf("%s: unit helpers broken", f)
		}
	}
}

func TestAllBackendsCompleteSAC(t *testing.T) {
	for _, f := range Frameworks() {
		res, err := Run(toyCfg(f, SAC, 1, 2))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if res.Steps < 2000 || res.TimeSeconds <= 0 {
			t.Errorf("%s: bad result %+v", f, res)
		}
	}
}

func TestRayMultiNodeRuns(t *testing.T) {
	res, err := Run(toyCfg(RLlib, PPO, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 2 {
		t.Fatal("node echo wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(toyCfg(RLlib, PPO, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(toyCfg(RLlib, PPO, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanReward != b.MeanReward || a.TimeSeconds != b.TimeSeconds || a.EnergyJoules != b.EnergyJoules {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestTimeModelOrderings(t *testing.T) {
	run := func(f Framework, nodes, cores int) Result {
		res, err := Run(toyCfg(f, PPO, nodes, cores))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sb := run(StableBaselines, 1, 4)
	tfa := run(TFAgents, 1, 4)
	ray1 := run(RLlib, 1, 4)
	ray2 := run(RLlib, 2, 4)

	// Per the calibrated cost model: sbx is the leanest single-node
	// backend, tfax pays busy driver overhead, rayx pays worker-loop
	// overhead on top.
	if !(sb.TimeSeconds < tfa.TimeSeconds) {
		t.Errorf("sbx (%v) should be faster than tfax (%v)", sb.TimeSeconds, tfa.TimeSeconds)
	}
	if !(tfa.TimeSeconds < ray1.TimeSeconds) {
		t.Errorf("tfax (%v) should be faster than 1-node rayx (%v)", tfa.TimeSeconds, ray1.TimeSeconds)
	}
	// Two nodes split the collection: faster despite the remote penalty.
	if !(ray2.TimeSeconds < ray1.TimeSeconds) {
		t.Errorf("2-node rayx (%v) should beat 1-node (%v)", ray2.TimeSeconds, ray1.TimeSeconds)
	}
	// ...but burn more energy (second chassis idle floor + serialization).
	if !(ray2.EnergyJoules > tfa.EnergyJoules) {
		t.Errorf("2-node rayx energy (%v) should exceed tfax (%v)", ray2.EnergyJoules, tfa.EnergyJoules)
	}
	// tfax saturates its cores during collection (the single-core learner
	// phase drags the mean down a little).
	if tfa.MeanUtilization < 0.85 {
		t.Errorf("tfax utilization %v should be near 1", tfa.MeanUtilization)
	}
}

func TestMoreCoresFaster(t *testing.T) {
	slow, err := Run(toyCfg(TFAgents, PPO, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(toyCfg(TFAgents, PPO, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.TimeSeconds < slow.TimeSeconds) {
		t.Errorf("4 cores (%v) should beat 2 cores (%v)", fast.TimeSeconds, slow.TimeSeconds)
	}
}

func TestEnvCostScalesTime(t *testing.T) {
	cheap := toyCfg(StableBaselines, PPO, 1, 2)
	cheap.EnvStepCost = 0.01
	costly := toyCfg(StableBaselines, PPO, 1, 2)
	costly.EnvStepCost = 0.10
	a, err := Run(cheap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(costly)
	if err != nil {
		t.Fatal(err)
	}
	ratio := b.TimeSeconds / a.TimeSeconds
	if ratio < 2 {
		t.Errorf("10x env cost should dominate time, ratio=%v", ratio)
	}
}

func TestPPOOverrideRespected(t *testing.T) {
	cfg := toyCfg(StableBaselines, PPO, 1, 2)
	cfg.PPOConfig = &ppo.Config{Epochs: 2, Minibatch: 256}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer epochs → less learner time than the 10-epoch preset.
	cfg2 := toyCfg(StableBaselines, PPO, 1, 2)
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.TimeSeconds < res2.TimeSeconds) {
		t.Errorf("2-epoch override (%v) should be faster than preset (%v)", res.TimeSeconds, res2.TimeSeconds)
	}
}

func TestSACCostsMoreTimeThanPPO(t *testing.T) {
	p, err := Run(toyCfg(TFAgents, PPO, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(toyCfg(TFAgents, SAC, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !(s.TimeSeconds > p.TimeSeconds) {
		t.Errorf("SAC (%v) should cost more virtual time than PPO (%v)", s.TimeSeconds, p.TimeSeconds)
	}
}

func TestPresets(t *testing.T) {
	if ppoPreset(StableBaselines).Epochs != 10 || ppoPreset(RLlib).Epochs != 16 {
		t.Fatal("ppo presets wrong")
	}
	if !(ppoPreset(StableBaselines).EntCoef < ppoPreset(TFAgents).EntCoef &&
		ppoPreset(TFAgents).EntCoef < ppoPreset(RLlib).EntCoef) {
		t.Fatal("final entropy flavors must order SB < TFA < RLlib")
	}
	if sacPreset(StableBaselines).Batch != 256 || sacPreset(RLlib).Batch != 0 {
		t.Fatal("sac presets wrong")
	}
}

func TestResultNaNGuard(t *testing.T) {
	r := Result{MeanReward: math.NaN()}
	if !math.IsNaN(r.MeanReward) {
		t.Skip()
	}
}

func TestLRDecaySchedule(t *testing.T) {
	if lrDecay(0, 100) != 1 {
		t.Fatal("decay should start at 1")
	}
	if got := lrDecay(50, 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("midpoint decay %v", got)
	}
	if lrDecay(99, 100) < 0.05-1e-12 || lrDecay(1000, 100) != 0.05 {
		t.Fatal("decay floor broken")
	}
}

func TestEntAnnealSchedule(t *testing.T) {
	if got := entAnneal(0.002, 0, 100); got != 0.01 {
		t.Fatalf("anneal should start at the exploration level: %v", got)
	}
	if got := entAnneal(0.002, 100, 100); math.Abs(got-0.002) > 1e-12 {
		t.Fatalf("anneal should end at the preset: %v", got)
	}
	mid := entAnneal(0.002, 50, 100)
	if mid <= 0.002 || mid >= 0.01 {
		t.Fatalf("midpoint %v outside (final, explore)", mid)
	}
	if got := entAnneal(0.002, 200, 100); math.Abs(got-0.002) > 1e-12 {
		t.Fatal("over-progress should clamp")
	}
}

func TestClusterConfigKeepsPhysicalCores(t *testing.T) {
	cfg := toyCfg(StableBaselines, PPO, 1, 2)
	cc := cfg.clusterConfig()
	if cc.CoresPerNode != 4 {
		t.Fatalf("2-core run must still model 4-core hardware, got %d", cc.CoresPerNode)
	}
	cfg8 := toyCfg(RLlib, PPO, 1, 8)
	if cc8 := cfg8.clusterConfig(); cc8.CoresPerNode != 8 {
		t.Fatalf("oversized requests grow the node: %d", cc8.CoresPerNode)
	}
}

func TestFewerCoresLessPower(t *testing.T) {
	// The fixed hardware means a 2-core run draws less power than a
	// 4-core run per unit time but takes longer.
	two, err := Run(toyCfg(StableBaselines, PPO, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(toyCfg(StableBaselines, PPO, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	wattsTwo := two.EnergyJoules / two.TimeSeconds
	wattsFour := four.EnergyJoules / four.TimeSeconds
	if !(wattsTwo < wattsFour) {
		t.Fatalf("2-core mean draw %v should be below 4-core %v", wattsTwo, wattsFour)
	}
}
