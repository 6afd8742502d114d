// Hyperparam: the paper's "implementation idea" of building the
// methodology on a hyperparameter-optimization framework (Optuna /
// Hyperopt): a TPE sampler proposes PPO hyperparameters for the Steer1D
// toy task, and a median pruner stops unpromising trials early from their
// intermediate learning curves.
//
// Run:
//
//	go run ./examples/hyperparam
package main

import (
	"fmt"
	"os"

	"rldecide/internal/core"
	"rldecide/internal/gym"
	"rldecide/internal/gym/toy"
	"rldecide/internal/mathx"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/report"
	"rldecide/internal/rl"
	"rldecide/internal/rl/ppo"
	"rldecide/internal/search"
)

func main() {
	study := &core.Study{
		CaseStudy: core.CaseStudy{
			Name:        "steer1d-hpo",
			Description: "TPE + median pruning over PPO hyperparameters",
		},
		Space: param.MustSpace(
			param.NewLogFloatRange("lr", 1e-4, 1e-2),
			param.NewIntSet("epochs", 4, 8, 12),
			param.NewFloatRange("clip", 0.1, 0.3),
		),
		Explorer: search.TPE{MinTrials: 6, NCandidates: 24},
		Metrics: []core.Metric{
			{Name: "return", Direction: pareto.Maximize},
		},
		Ranker:    core.SortedRanker{By: "return"},
		Pruner:    search.MedianPruner{WarmupSteps: 1, MinTrials: 4},
		Objective: trainObjective,
		Seed:      3,
	}

	fmt.Fprintln(os.Stderr, "running 20 TPE trials with median pruning...")
	rep, err := study.Run(20)
	exitOn(err)

	pruned := 0
	for _, t := range rep.Trials {
		if t.Pruned {
			pruned++
		}
	}
	fmt.Printf("trials: %d finished, %d pruned early\n\n", len(rep.Completed()), pruned)
	exitOn(report.Table(os.Stdout, rep))
	if best, ok := rep.Best("return"); ok {
		fmt.Printf("\nbest configuration: %s  (return %.3f)\n", best.Params, best.Values.At("return"))
	}
}

// exitOn ends the program with err, if there is one.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// trainObjective trains PPO on Steer1D with the proposed hyperparameters,
// reporting intermediate evaluation returns so the pruner can act.
func trainObjective(a param.Assignment, seed uint64, rec *core.Recorder) error {
	seeder := mathx.NewSeeder(seed)
	vec := gym.NewVec(toy.MakeSteer1D(), 4, seeder, false)
	cfg := ppo.Config{
		LR:      a.Value("lr").Float(),
		Epochs:  a.Value("epochs").Int(),
		ClipEps: a.Value("clip").Float(),
	}
	learner := ppo.New(cfg, vec.ObservationSpace().Dim(), 3, seeder.Next())
	col := ppo.NewCollector(vec)

	evalEnv := toy.NewSteer1D(seeder.Next())
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < 5; i++ {
			learner.Update(col.Collect(learner, 64))
		}
		eval := rl.Evaluate(evalEnv, learner.Policy(), 10)
		if !rec.Intermediate(eval.MeanReturn) {
			return core.ErrPruned
		}
	}
	final := rl.Evaluate(evalEnv, learner.Policy(), 30)
	rec.Report("return", final.MeanReturn)
	return nil
}
