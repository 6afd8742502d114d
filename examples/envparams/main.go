// Envparams: exploring the case study's *environment-dependent* parameters
// (paper §IV-B): wind, gusts and the Runge-Kutta order all change both the
// learning difficulty and the compute cost. Here the scripted autopilot
// stands in for a trained agent so the whole grid runs in seconds, and the
// study grid-searches the environment space against landing precision and
// modeled per-episode CPU cost.
//
// Run:
//
//	go run ./examples/envparams
package main

import (
	"fmt"
	"os"

	"rldecide/internal/airdrop"
	"rldecide/internal/core"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/report"
	"rldecide/internal/rl"
	"rldecide/internal/search"
)

func main() {
	study := &core.Study{
		CaseStudy: core.CaseStudy{
			Name:        "airdrop-environment-parameters",
			Description: "wind / gusts / RK order vs. landing precision and step cost",
		},
		Space: param.MustSpace(
			param.NewIntSet("rk_order", 3, 5, 8),
			param.NewIntSet("wind", 0, 1),
			param.NewFloatRange("gust_prob", 0, 0.2),
		),
		Explorer: &search.GridSearch{},
		Metrics: []core.Metric{
			{Name: "reward", Direction: pareto.Maximize},
			{Name: "episode_cost", Unit: "s", Direction: pareto.Minimize},
		},
		Ranker:    core.ParetoRanker{},
		Objective: flyGrid,
		Seed:      5,
	}

	// 3 orders x 2 wind x 5 gust grid points = 30 configurations.
	rep, err := study.Run(30)
	exitOn(err)
	exitOn(report.Table(os.Stdout, rep))
	fmt.Println()
	exitOn(report.ASCIIScatter(os.Stdout, rep, report.ScatterSpec{
		X: "episode_cost", Y: "reward",
		Title: "landing precision vs. per-episode compute",
	}))
	if best, ok := rep.Best("reward"); ok {
		fmt.Printf("\neasiest environment: %s (reward %.3f)\n", best.Params, best.Values.At("reward"))
	}
}

// exitOn ends the program with err, if there is one.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// flyGrid evaluates one environment configuration with the PD autopilot.
func flyGrid(a param.Assignment, seed uint64, rec *core.Recorder) error {
	cfg := airdrop.NewConfig()
	cfg.RKOrder = a.Value("rk_order").Int()
	cfg.Wind.Enabled = a.Value("wind").Int() == 1
	cfg.Wind.Gusts = cfg.Wind.Enabled && a.Value("gust_prob").Float() > 0
	cfg.Wind.GustProb = a.Value("gust_prob").Float()
	env, err := airdrop.New(cfg, seed)
	if err != nil {
		return err
	}
	ap := airdrop.Autopilot{}
	res := rl.Evaluate(env, rl.PolicyFunc(ap.Act), 40)
	rec.Report("reward", res.MeanReturn)
	rec.Report("episode_cost", env.StepCost()*res.MeanLength)
	return nil
}
