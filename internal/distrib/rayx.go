package distrib

import (
	"fmt"
	"math"

	"rldecide/internal/cluster"
	"rldecide/internal/gym"
	"rldecide/internal/mathx"
	"rldecide/internal/nn"
	"rldecide/internal/rl"
	"rldecide/internal/rl/ppo"
	"rldecide/internal/rl/sac"
)

// trainRay is the RLlib-style backend: a driver/learner on node 0 and
// one rollout worker per core on every node. Remote workers pay
// serialization overhead per sample, ship their batches over the link, and
// receive weights one sync round late — so multi-node runs are faster in
// wall time but train on slightly stale policies, reproducing the paper's
// reward gap between 1-node and 2-node RLlib configurations.
func trainRay(cfg TrainConfig) (Result, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	sim := cluster.New(full.clusterConfig())
	seeder := mathx.NewSeeder(full.Seed)
	switch full.Algo {
	case PPO:
		return trainRayPPO(full, sim, seeder)
	case SAC:
		return trainRaySAC(full, sim, seeder)
	}
	return Result{}, fmt.Errorf("distrib: unreachable algo %q", full.Algo)
}

// nodeWorkers is the per-node worker group: a vectorized env (one env per
// core), a policy copy and a collector.
type nodeWorkers struct {
	vec *gym.VecEnv
	pol *ppo.PPO
	col *ppo.Collector
}

func trainRayPPO(cfg TrainConfig, sim *cluster.Sim, seeder *mathx.Seeder) (Result, error) {
	probe := cfg.EnvMaker(seeder.Next())
	nActions, err := actionCountOf(probe.ActionSpace())
	if err != nil {
		return Result{}, err
	}
	obsDim := probe.ObservationSpace().Dim()
	envCost := envStepCost(&cfg, probe)

	pcfg := ppoPreset(RLlib)
	if cfg.PPOConfig != nil {
		pcfg = *cfg.PPOConfig
	}
	learner := ppo.New(pcfg, obsDim, nActions, seeder.Next())
	updCostPerSample := ppoUpdateCostPerSampleEpoch * float64(learner.Cfg.Epochs)

	groups := make([]*nodeWorkers, cfg.Nodes)
	for n := range groups {
		vec := gym.NewVec(cfg.EnvMaker, cfg.Cores, seeder, false)
		pol := ppo.New(pcfg, obsDim, nActions, seeder.Next())
		pol.SetWeights(learner.Weights())
		groups[n] = &nodeWorkers{vec: vec, pol: pol, col: ppo.NewCollector(vec)}
	}
	// Remote workers run behind the learner: with the asynchronous
	// sampling pipeline, a remote worker's batch for round k was collected
	// with the weights of round k-remoteWeightLag (in-flight collection,
	// transfer and broadcast each add a round). This is the genuine
	// mechanism behind the paper's reward loss when distributing across
	// nodes.
	weightHist := [][]float64{learner.Weights()}
	weightBytes := int64(learner.NumWeights() * weightBytes4)

	var curve curveTracker
	steps := 0
	for steps < cfg.TotalSteps {
		learner.SetLR(pcfg.WithDefaults().LR * lrDecay(steps, cfg.TotalSteps))
		learner.SetEntCoef(entAnneal(pcfg.WithDefaults().EntCoef, steps, cfg.TotalSteps))
		merged := &rl.Rollout{}
		var windowEps []float64
		for n, g := range groups {
			roll := g.col.Collect(g.pol, cfg.RolloutSteps)
			merged.Segments = append(merged.Segments, roll.Segments...)
			windowEps = append(windowEps, g.col.TakeEpisodes()...)

			perStep := envCost + rayLocalPerStep
			if n != 0 {
				perStep = envCost + rayRemotePerStep
			}
			sim.Run(n, cfg.Cores, float64(cfg.RolloutSteps)*perStep)
		}
		// Remote sample batches ship to the driver (synchronizes clocks;
		// the driver idles until the slowest worker node delivers).
		for n := 1; n < cfg.Nodes; n++ {
			sim.Transfer(n, 0, int64(cfg.Cores*cfg.RolloutSteps*sampleBytes))
		}

		n := merged.Steps()
		steps += n
		learner.Update(merged)
		sim.Run(0, 1, float64(n)*updCostPerSample)

		// Weight sync: the driver-node workers act with the fresh weights
		// next round; remote workers act with weights remoteWeightLag
		// rounds old (their broadcasts overlap in-flight collection).
		newWeights := learner.Weights()
		weightHist = append(weightHist, newWeights)
		if len(weightHist) > remoteWeightLag+1 {
			weightHist = weightHist[1:]
		}
		groups[0].pol.SetWeights(newWeights)
		for i := 1; i < len(groups); i++ {
			groups[i].pol.SetWeights(weightHist[0])
		}
		sim.Broadcast(0, weightBytes)

		curve.flush(steps, windowEps)
	}

	eval := evaluatePolicy(&cfg, seeder, learner.StochasticPolicy())
	res := Result{
		Framework: RLlib, Algo: PPO, Nodes: cfg.Nodes, Cores: cfg.Cores,
		MeanReward: eval.MeanReturn, StdReward: eval.StdReturn,
		Steps: steps, Episodes: curve.episodes, Curve: curve.points,
	}
	finishResult(&res, sim)
	return res, nil
}

// sacActorGroup is a per-node SAC collection group acting with a copy of
// the learner's actor network.
type sacActorGroup struct {
	vec   *gym.VecEnv
	actor *nn.MLP
	rng   rngSource
	obs   [][]float64
	epRet []float64
}

type rngSource interface {
	IntN(int) int
	Float64() float64
}

func trainRaySAC(cfg TrainConfig, sim *cluster.Sim, seeder *mathx.Seeder) (Result, error) {
	probe := cfg.EnvMaker(seeder.Next())
	nActions, err := actionCountOf(probe.ActionSpace())
	if err != nil {
		return Result{}, err
	}
	obsDim := probe.ObservationSpace().Dim()
	envCost := envStepCost(&cfg, probe)

	scfg := sacPreset(RLlib)
	if cfg.SACConfig != nil {
		scfg = *cfg.SACConfig
	}
	learner := sac.New(scfg, obsDim, nActions, seeder.Next())
	weightBytes := int64(learner.Actor.NumParams() * weightBytes4)

	groups := make([]*sacActorGroup, cfg.Nodes)
	for n := range groups {
		vec := gym.NewVec(cfg.EnvMaker, cfg.Cores, seeder, false)
		g := &sacActorGroup{
			vec:   vec,
			actor: learner.Actor.Clone(),
			rng:   seeder.NewRand(),
			epRet: make([]float64, cfg.Cores),
		}
		// Owned copies: the envs reuse their observation buffers.
		g.obs = make([][]float64, cfg.Cores)
		for i, o := range vec.Reset() {
			g.obs[i] = append([]float64(nil), o...)
		}
		groups[n] = g
	}

	const syncEvery = 32 // env steps per actor between weight syncs
	var curve curveTracker
	var window []float64
	steps := 0
	warmup := learner.Cfg.StartSteps

	// The shipped batch is buffered per round with slot-owned observation
	// storage (the envs reuse theirs), allocated once for the round size.
	transBuf := make([]rl.Transition, cfg.Nodes*cfg.Cores*syncEvery)
	for i := range transBuf {
		transBuf[i].Obs = make([]float64, obsDim)
		transBuf[i].NextObs = make([]float64, obsDim)
	}
	actions := make([][]float64, cfg.Cores)
	for i := range actions {
		actions[i] = []float64{0}
	}
	acts := make([]int, cfg.Cores)

	for steps < cfg.TotalSteps {
		transitions := transBuf[:0]
		for n, g := range groups {
			for t := 0; t < syncEvery; t++ {
				for i := 0; i < cfg.Cores; i++ {
					var a int
					if steps < warmup {
						a = g.rng.IntN(nActions)
					} else {
						a = sampleFromActor(g.actor, g.rng, g.obs[i])
					}
					acts[i] = a
					actions[i][0] = float64(a)
				}
				stepRes := g.vec.Step(actions)
				for i := range stepRes {
					s := &stepRes[i]
					next := s.Obs
					if s.Done {
						next = s.FinalObs
					}
					transitions = transitions[:len(transitions)+1]
					tr := &transitions[len(transitions)-1]
					copy(tr.Obs, g.obs[i])
					tr.Action = acts[i]
					tr.Reward = s.Reward
					copy(tr.NextObs, next)
					tr.Done = s.Done && !s.Truncated
					g.epRet[i] += s.Reward
					if s.Done {
						window = append(window, g.epRet[i])
						g.epRet[i] = 0
					}
					copy(g.obs[i], s.Obs)
					steps++
				}
			}
			perStep := envCost + rayLocalPerStep
			if n != 0 {
				perStep = envCost + rayRemotePerStep
			}
			sim.Run(n, cfg.Cores, float64(syncEvery)*perStep)
		}
		for n := 1; n < cfg.Nodes; n++ {
			sim.Transfer(n, 0, int64(cfg.Cores*syncEvery*sampleBytes))
		}

		// The learner consumes the shipped transitions, one gradient round
		// per environment step as configured, serialized on the driver.
		updates := 0
		for _, tr := range transitions {
			if _, ok := learner.Observe(tr); ok {
				updates++
			}
		}
		if updates > 0 {
			sim.Run(0, 1, float64(updates*learner.Cfg.UpdatesPerRnd)*sacUpdateCostPerGradStep)
		}

		// Fresh actor weights go out to every group.
		for _, g := range groups {
			g.actor.SetWeights(learner.Actor.Weights())
		}
		sim.Broadcast(0, weightBytes)

		if len(window) >= 10 {
			curve.flush(steps, window)
			window = nil
		}
	}
	curve.flush(steps, window)

	eval := evaluatePolicy(&cfg, seeder, learner.StochasticPolicy())
	res := Result{
		Framework: RLlib, Algo: SAC, Nodes: cfg.Nodes, Cores: cfg.Cores,
		MeanReward: eval.MeanReturn, StdReward: eval.StdReturn,
		Steps: steps, Episodes: curve.episodes, Curve: curve.points,
	}
	finishResult(&res, sim)
	return res, nil
}

// sampleFromActor draws a categorical action from an actor-network copy.
// The probabilities are recomputed on the fly rather than buffered; the
// arithmetic (exp(v-mx)/sum accumulated in ascending order) matches the
// softmax-then-scan form exactly, so sampled sequences are unchanged.
func sampleFromActor(actor *nn.MLP, rng rngSource, obs []float64) int {
	logits := actor.Forward1(obs)
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	sum := 0.0
	for _, v := range logits {
		sum += math.Exp(v - mx)
	}
	u := rng.Float64()
	acc := 0.0
	for i, v := range logits {
		acc += math.Exp(v-mx) / sum
		if u <= acc {
			return i
		}
	}
	return len(logits) - 1
}
