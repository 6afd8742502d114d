package studyd

import (
	"fmt"

	"rldecide/internal/analysis"
	"rldecide/internal/core"
	"rldecide/internal/gym"
	"rldecide/internal/gym/toy"
	"rldecide/internal/mathx"
	"rldecide/internal/param"
	"rldecide/internal/rl"
	"rldecide/internal/rl/ppo"
)

// steerPPOEnv names the environment steer-ppo trains and evaluates on; it
// matches the analysis env registry, so recorded trajectories are
// branchable by the counterfactual analyzer.
const steerPPOEnv = "steer1d"

func init() {
	RegisterObjective("steer-ppo", steerPPOObjective)
}

// steerPPOObjective is the real-RL study objective: each trial trains a
// small PPO agent on the Steer1D control task under the trial's
// hyperparameters, then evaluates the greedy policy on fresh
// deterministically seeded episodes. Metric 0 gets the mean evaluation
// return; metric 1 (when declared) gets the modeled training compute in
// unit-network step costs, giving two-metric studies a genuine
// return-vs-compute Pareto trade-off.
//
// Recognized parameters (all optional, by name): "lr" (learning rate,
// default 3e-3), "hidden" (hidden width, default 16), "steps" (training
// env steps, default 2048). A trial with lr <= 0, hidden < 1 or steps < 1
// fails with an error naming the parameter, rather than training under a
// value other than the one its journal records.
//
// Evaluation always replays the same rl.RecordEpisode walk, whether or
// not a trajectory sink is attached to the trial's context — metric
// values depend only on (params, seed), so turning trajectory recording
// on or off provably never changes journals or fronts.
func steerPPOObjective(spec Spec, metrics []core.Metric) (core.Objective, error) {
	if len(metrics) > 2 {
		return nil, fmt.Errorf("studyd: objective %q supports at most 2 metrics, got %d", spec.Objective, len(metrics))
	}
	return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
		lr := floatParam(a, "lr", 3e-3)
		hidden := intParam(a, "hidden", 16)
		steps := intParam(a, "steps", 2048)
		switch {
		case !(lr > 0):
			return fmt.Errorf("studyd: steer-ppo needs lr > 0, got lr = %v", lr)
		case hidden < 1:
			return fmt.Errorf("studyd: steer-ppo needs hidden >= 1, got hidden = %d", hidden)
		case steps < 1:
			return fmt.Errorf("studyd: steer-ppo needs steps >= 1, got steps = %d", steps)
		}
		const (
			nEnv    = 4
			rollout = 64 // per-env steps per update
			evalEps = 8
		)
		seeder := mathx.NewSeeder(seed)
		vec := gym.NewVec(toy.MakeSteer1D(), nEnv, seeder, false)
		learner := ppo.New(ppo.Config{Hidden: []int{hidden}, LR: lr}, vec.ObservationSpace().Dim(), 3, seeder.Next())
		col := ppo.NewCollector(vec)
		done := 0
		for done < steps {
			if err := rec.Context().Err(); err != nil {
				return err
			}
			roll := col.Collect(learner, rollout)
			done += roll.Steps()
			learner.Update(roll)
		}

		// Greedy evaluation on fresh, per-episode-seeded environments. The
		// episodes are recorded unconditionally (recording is passive) and
		// handed to the context sink when one is attached — the daemon's
		// trajectory journal in analysis mode, nothing otherwise.
		sink := analysis.EpisodeSinkFrom(rec.Context())
		policy := learner.Policy()
		returns := make([]float64, 0, evalEps)
		for i := 0; i < evalEps; i++ {
			epSeed := seeder.Next()
			env := toy.MakeSteer1D()(epSeed)
			ep := rl.RecordEpisode(env, policy)
			ep.Trial = rec.TrialID()
			ep.Index = i
			ep.Env = steerPPOEnv
			ep.Seed = epSeed
			if sink != nil {
				sink.Record(ep)
			}
			returns = append(returns, ep.Return)
		}
		rec.Report(metrics[0].Name, mathx.Mean(returns))
		if len(metrics) > 1 {
			// Modeled compute: env steps times per-step network work
			// (forward ~ hidden units; update amortizes epochs over the
			// batch). Deterministic in (params) by construction.
			cost := float64(done) * float64(hidden) * float64(1+learner.Cfg.Epochs) * 1e-3
			rec.Report(metrics[1].Name, cost)
		}
		return nil
	}, nil
}

// floatParam reads a numeric parameter by name, with a default when the
// spec's space does not declare it.
func floatParam(a param.Assignment, name string, def float64) float64 {
	v, ok := a.Get(name)
	if !ok {
		return def
	}
	return v.Float()
}

// intParam reads an integer-valued parameter by name with a default.
func intParam(a param.Assignment, name string, def int) int {
	v, ok := a.Get(name)
	if !ok {
		return def
	}
	return int(v.Float())
}
