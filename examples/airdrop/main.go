// Airdrop: the paper's case study end-to-end at reduced scale.
//
// Runs a six-configuration slice of the Table-I campaign — real PPO/SAC
// training on the parachute simulator over the virtual cluster — and
// prints the resulting decision-analysis table and the reward-vs-time
// Pareto front. Expect a couple of minutes of wall time.
//
// Run:
//
//	go run ./examples/airdrop
package main

import (
	"fmt"
	"os"

	"rldecide/internal/core"
	"rldecide/internal/experiments"
	"rldecide/internal/param"
	"rldecide/internal/report"
)

func main() {
	// A representative slice of Table I: the fastest configuration, the
	// best-reward configuration, the most power-efficient one, the
	// 1-vs-2-node pair, and one SAC run.
	ids := map[int]bool{2: true, 16: true, 11: true, 7: true, 8: true, 15: true}
	var picks []param.Assignment
	for _, sol := range experiments.TableI() {
		if ids[sol.ID] {
			picks = append(picks, sol.Assignment())
		}
	}

	scale := experiments.QuickScale()
	scale.TotalSteps = 12_000 // enough for PPO to steer credibly
	scale.Replicas = 1

	study := experiments.NewTableIStudy(scale, 7, 1)
	study.Explorer = &experiments.ReplayExplorer{Assignments: picks}

	fmt.Fprintf(os.Stderr, "training %d configurations (%d steps each)...\n", len(picks), scale.TotalSteps)
	rep, err := study.Run(len(picks))
	exitOn(err)

	exitOn(report.Table(os.Stdout, rep))
	fmt.Println()
	exitOn(report.ASCIIScatter(os.Stdout, rep, report.ScatterSpec{
		X:     experiments.MetricTime,
		Y:     experiments.MetricReward,
		Title: "Reward vs. Computation Time (cf. paper Fig. 4)",
		Eps:   experiments.FrontEps,
	}))

	front, _ := rep.FrontIDs(experiments.FrontEps, experiments.MetricReward, experiments.MetricTime, experiments.MetricPower)
	fmt.Printf("\n3-objective Pareto front: trials %v\n", front)
	if best, ok := rep.Best(experiments.MetricReward); ok {
		fmt.Printf("best reward: trial %d  %s  (%.3f)\n", best.ID, best.Params, best.Values.At(experiments.MetricReward))
	}
	var _ *core.Report = rep
}

// exitOn ends the program with err, if there is one.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
