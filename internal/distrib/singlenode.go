package distrib

import (
	"fmt"

	"rldecide/internal/cluster"
	"rldecide/internal/gym"
	"rldecide/internal/mathx"
	"rldecide/internal/rl"
	"rldecide/internal/rl/ppo"
	"rldecide/internal/rl/sac"
)

// singleNodeProfile captures how a single-node framework spends CPU around
// the raw environment compute.
type singleNodeProfile struct {
	framework Framework
	// busyFactor multiplies env compute as additional busy CPU work
	// (driver bookkeeping); 1.0 means no extra busy work.
	busyFactor float64
	// idleFactor multiplies env compute as idle synchronization time
	// (lockstep barriers).
	idleFactor float64
}

// train runs a full single-node job (PPO or SAC) under the profile.
func (p singleNodeProfile) train(cfg TrainConfig) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if cfg.Nodes != 1 {
		return Result{}, fmt.Errorf("distrib: %s trains on a single node (got %d); multi-node runs need %s", p.framework, cfg.Nodes, RLlib)
	}
	sim := cluster.New(cfg.clusterConfig())
	seeder := mathx.NewSeeder(cfg.Seed)

	switch cfg.Algo {
	case PPO:
		return p.trainPPO(cfg, sim, seeder)
	case SAC:
		return p.trainSAC(cfg, sim, seeder)
	}
	return Result{}, fmt.Errorf("distrib: unreachable algo %q", cfg.Algo)
}

func (p singleNodeProfile) trainPPO(cfg TrainConfig, sim *cluster.Sim, seeder *mathx.Seeder) (Result, error) {
	nEnv := cfg.Cores // one vectorized environment per CPU core
	vec := gym.NewVec(cfg.EnvMaker, nEnv, seeder, false)
	nActions, err := actionCountOf(vec.ActionSpace())
	if err != nil {
		return Result{}, err
	}
	pcfg := ppoPreset(p.framework)
	if cfg.PPOConfig != nil {
		pcfg = *cfg.PPOConfig
	}
	learner := ppo.New(pcfg, vec.ObservationSpace().Dim(), nActions, seeder.Next())
	col := ppo.NewCollector(vec)
	envCost := envStepCost(&cfg, vec.Env(0))
	updCostPerSample := ppoUpdateCostPerSampleEpoch * float64(learner.Cfg.Epochs)

	var curve curveTracker
	steps := 0
	for steps < cfg.TotalSteps {
		// Linear learning-rate decay to zero over the training budget, as
		// the reference PPO implementations default to; entropy annealed
		// to the framework's final coefficient.
		learner.SetLR(pcfg.WithDefaults().LR * lrDecay(steps, cfg.TotalSteps))
		learner.SetEntCoef(entAnneal(pcfg.WithDefaults().EntCoef, steps, cfg.TotalSteps))
		roll := col.Collect(learner, cfg.RolloutSteps)
		n := roll.Steps()
		steps += n

		// Virtual cost of the collection phase: the vector steps run in
		// lockstep across nEnv cores; the profile decides whether the
		// overhead is busy driver work or idle barrier time.
		perEnvSteps := float64(cfg.RolloutSteps)
		sim.Run(0, nEnv, perEnvSteps*envCost*p.busyFactor)
		if p.idleFactor > 0 {
			sim.Idle(0, perEnvSteps*envCost*p.idleFactor)
		}

		learner.Update(roll)
		sim.Run(0, 1, float64(n)*updCostPerSample)

		curve.flush(steps, col.TakeEpisodes())
	}

	eval := evaluatePolicy(&cfg, seeder, learner.StochasticPolicy())
	res := Result{
		Framework: p.framework, Algo: PPO, Nodes: 1, Cores: cfg.Cores,
		MeanReward: eval.MeanReturn, StdReward: eval.StdReturn,
		Steps: steps, Episodes: curve.episodes, Curve: curve.points,
		ParamDigest: paramDigest(learner.Actor, learner.Critic),
	}
	finishResult(&res, sim)
	return res, nil
}

func (p singleNodeProfile) trainSAC(cfg TrainConfig, sim *cluster.Sim, seeder *mathx.Seeder) (Result, error) {
	nEnv := cfg.Cores
	vec := gym.NewVec(cfg.EnvMaker, nEnv, seeder, false)
	nActions, err := actionCountOf(vec.ActionSpace())
	if err != nil {
		return Result{}, err
	}
	scfg := sacPreset(p.framework)
	if cfg.SACConfig != nil {
		scfg = *cfg.SACConfig
	}
	learner := sac.New(scfg, vec.ObservationSpace().Dim(), nActions, seeder.Next())
	envCost := envStepCost(&cfg, vec.Env(0))

	var curve curveTracker
	// Keep owned copies of the per-env observations: the envs reuse their
	// observation buffers (gym.StepResult contract), and the pre-step obs
	// must survive the vec.Step that produces its successor.
	obs := make([][]float64, nEnv)
	for i, o := range vec.Reset() {
		obs[i] = append([]float64(nil), o...)
	}
	actions := make([][]float64, nEnv)
	for i := range actions {
		actions[i] = []float64{0}
	}
	epRet := make([]float64, nEnv)
	var window []float64

	steps := 0
	for steps < cfg.TotalSteps {
		for i := 0; i < nEnv; i++ {
			actions[i][0] = float64(learner.Act(obs[i]))
		}
		stepRes := vec.Step(actions)
		// Collection: one lockstep vector step across nEnv cores.
		sim.Run(0, nEnv, envCost*p.busyFactor)
		if p.idleFactor > 0 {
			sim.Idle(0, envCost*p.idleFactor)
		}
		updates := 0
		for i, s := range stepRes {
			next := s.Obs
			if s.Done {
				next = s.FinalObs
			}
			_, ok := learner.Observe(rl.Transition{
				Obs:     obs[i],
				Action:  int(actions[i][0]),
				Reward:  s.Reward,
				NextObs: next,
				Done:    s.Done && !s.Truncated,
			})
			if ok {
				updates++
			}
			epRet[i] += s.Reward
			if s.Done {
				window = append(window, epRet[i])
				epRet[i] = 0
			}
			copy(obs[i], s.Obs)
			steps++
		}
		// SAC's gradient rounds are serialized on the learner core.
		if updates > 0 {
			sim.Run(0, 1, float64(updates*learner.Cfg.UpdatesPerRnd)*sacUpdateCostPerGradStep)
		}
		if len(window) >= 10 {
			curve.flush(steps, window)
			window = nil
		}
	}
	curve.flush(steps, window)

	eval := evaluatePolicy(&cfg, seeder, learner.StochasticPolicy())
	res := Result{
		Framework: p.framework, Algo: SAC, Nodes: 1, Cores: cfg.Cores,
		MeanReward: eval.MeanReturn, StdReward: eval.StdReturn,
		Steps: steps, Episodes: curve.episodes, Curve: curve.points,
		ParamDigest: paramDigest(learner.Actor, learner.Q1, learner.Q2, learner.Q1T, learner.Q2T),
	}
	finishResult(&res, sim)
	return res, nil
}
