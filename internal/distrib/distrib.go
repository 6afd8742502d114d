// Package distrib implements the three distributed-RL training backends
// the paper compares — architectural stand-ins for Ray RLlib, Stable
// Baselines and TF-Agents — on top of the virtual cluster simulator.
//
// Each backend runs *real* learning (the PPO/SAC learners from
// internal/rl on the real environment) while posting the modeled cost of
// every phase to a cluster.Sim, so a finished run reports genuine rewards
// together with virtual Computation Time and Power Consumption:
//
//   - rayx ("rllib"): multi-node actor/learner. One rollout worker per
//     core on every node; remote workers ship sample batches over the
//     1 Gbps link, pay per-sample serialization overhead, and act with
//     weights one sync round stale — which is the genuine mechanism behind
//     the paper's observation that distributing across nodes costs reward.
//   - sbx ("stablebaselines"): single node, synchronous vectorized
//     environments (one per core) with a small lockstep-synchronization
//     overhead, learner on one core.
//   - tfax ("tfagents"): single node, parallel driver/collector that keeps
//     all cores saturated (driver bookkeeping is CPU work, not idle time) —
//     slightly slower per step than sbx but the most power-efficient
//     profile at full core count, as in the paper.
package distrib

import (
	"fmt"
	"math"

	"rldecide/internal/cluster"
	"rldecide/internal/gym"
	"rldecide/internal/rl/ppo"
	"rldecide/internal/rl/sac"
)

// Framework names a training backend.
type Framework string

// The three frameworks of the paper's study.
const (
	RLlib           Framework = "rllib"
	StableBaselines Framework = "stablebaselines"
	TFAgents        Framework = "tfagents"
)

// Frameworks lists all supported backends.
func Frameworks() []Framework { return []Framework{RLlib, StableBaselines, TFAgents} }

// Algo names a learning algorithm.
type Algo string

// The two algorithms of the paper's study.
const (
	PPO Algo = "ppo"
	SAC Algo = "sac"
)

// TrainConfig describes one training run (one "learning configuration" in
// the methodology's vocabulary).
type TrainConfig struct {
	Framework Framework
	Algo      Algo

	// Nodes and Cores describe the deployment. Single-node frameworks
	// (sbx, tfax) reject Nodes > 1.
	Nodes int
	Cores int

	// EnvMaker builds the environment; TotalSteps is the training budget
	// in environment steps summed over all actors.
	EnvMaker   gym.EnvMaker
	TotalSteps int

	// EnvStepCost overrides the modeled CPU seconds per environment step;
	// when 0 it is taken from the environment's gym.Costed implementation.
	EnvStepCost float64

	// RolloutSteps is the per-environment collection length per PPO
	// iteration (default 128).
	RolloutSteps int

	// EvalEpisodes is the final greedy evaluation budget (default 50).
	EvalEpisodes int

	// Seed drives all randomness of the run.
	Seed uint64

	// PPOConfig / SACConfig override the framework's algorithm preset
	// when non-nil.
	PPOConfig *ppo.Config
	SACConfig *sac.Config
}

func (c *TrainConfig) withDefaults() (TrainConfig, error) {
	cfg := *c
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.EnvMaker == nil {
		return cfg, fmt.Errorf("distrib: EnvMaker is required")
	}
	if cfg.TotalSteps <= 0 {
		return cfg, fmt.Errorf("distrib: TotalSteps must be positive")
	}
	if cfg.RolloutSteps <= 0 {
		cfg.RolloutSteps = 128
	}
	if cfg.EvalEpisodes <= 0 {
		cfg.EvalEpisodes = 50
	}
	switch cfg.Algo {
	case PPO, SAC:
	default:
		return cfg, fmt.Errorf("distrib: unknown algorithm %q", cfg.Algo)
	}
	return cfg, nil
}

// clusterConfig returns the simulated hardware for the run. The node
// hardware keeps its physical core count (the paper's machines have 4
// cores); a configuration that uses fewer cores leaves the others idle and
// pays their share of the power floor — using only 2 of 4 cores halves the
// utilization, it does not shrink the chip.
func (c *TrainConfig) clusterConfig() cluster.Config {
	cc := cluster.Paper()
	cc.Nodes = c.Nodes
	if c.Cores > cc.CoresPerNode {
		cc.CoresPerNode = c.Cores
	}
	return cc
}

// envStepCost resolves the modeled env step cost.
func envStepCost(cfg *TrainConfig, env gym.Env) float64 {
	if cfg.EnvStepCost > 0 {
		return cfg.EnvStepCost
	}
	if c, ok := env.(gym.Costed); ok {
		return c.StepCost()
	}
	return defaultEnvStepCost
}

// CurvePoint is one point of a learning curve.
type CurvePoint struct {
	Steps  int
	Reward float64 // mean return of episodes finished since the last point
}

// Result reports a finished training run.
type Result struct {
	Framework Framework
	Algo      Algo
	Nodes     int
	Cores     int

	// MeanReward / StdReward come from the final greedy evaluation.
	MeanReward float64
	StdReward  float64

	// TimeSeconds is the virtual computation time of the whole run;
	// EnergyJoules the virtual energy, both from the cluster simulator.
	TimeSeconds  float64
	EnergyJoules float64

	Steps    int
	Episodes int
	Curve    []CurvePoint

	// MeanUtilization is the average core utilization across nodes.
	MeanUtilization float64
}

// TimeMinutes returns the virtual computation time in minutes.
func (r Result) TimeMinutes() float64 { return r.TimeSeconds / 60 }

// EnergyKJ returns the virtual energy in kilojoules.
func (r Result) EnergyKJ() float64 { return r.EnergyJoules / 1000 }

// Run trains cfg on the backend cfg.Framework names.
func Run(cfg TrainConfig) (Result, error) {
	switch cfg.Framework {
	case RLlib:
		return trainRay(cfg)
	case StableBaselines:
		return singleNodeProfile{
			framework:  StableBaselines,
			busyFactor: 1.0,
			idleFactor: sbSyncOverhead - 1,
		}.train(cfg)
	case TFAgents:
		return singleNodeProfile{
			framework:  TFAgents,
			busyFactor: tfaDriverOverhead,
			idleFactor: 0,
		}.train(cfg)
	default:
		return Result{}, fmt.Errorf("distrib: unknown framework %q", cfg.Framework)
	}
}

// finishResult fills the cluster-derived fields of a result.
func finishResult(res *Result, sim *cluster.Sim) {
	res.EnergyJoules = sim.Energy() // barriers all nodes first
	res.TimeSeconds = sim.Time()
	u := 0.0
	for n := 0; n < sim.Nodes(); n++ {
		u += sim.Utilization(n)
	}
	res.MeanUtilization = u / float64(sim.Nodes())
	if math.IsNaN(res.MeanReward) {
		res.MeanReward = 0
	}
}
