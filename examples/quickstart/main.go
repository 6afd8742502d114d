// Quickstart: build a decision-analysis tool in ~50 lines.
//
// The methodology's five stages on a synthetic problem: we "train" a fake
// model whose accuracy, runtime and energy depend on two knobs (model size
// and solver precision), explore the space with Random Search, and rank
// the trade-offs with a Pareto front.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"os"

	"rldecide/internal/core"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/report"
	"rldecide/internal/search"
)

func main() {
	study := &core.Study{
		// (a) the case study.
		CaseStudy: core.CaseStudy{
			Name:        "quickstart",
			Description: "synthetic accuracy/runtime/energy trade-off",
		},
		// (b) the learning configurations.
		Space: param.MustSpace(
			param.NewIntSet("model_size", 16, 32, 64, 128),
			param.NewFloatRange("precision", 0.1, 1.0),
		),
		// (c) the exploratory method.
		Explorer: search.RandomSearch{Dedup: true},
		// (d) the evaluation metrics.
		Metrics: []core.Metric{
			{Name: "accuracy", Direction: pareto.Maximize},
			{Name: "runtime", Unit: "s", Direction: pareto.Minimize},
			{Name: "energy", Unit: "J", Direction: pareto.Minimize},
		},
		// (e) the ranking method.
		Ranker: core.ParetoRanker{},
		// The objective evaluates one configuration.
		Objective: func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			size := a.Value("model_size").Float()
			prec := a.Value("precision").Float()
			rec.Report("accuracy", 1-math.Exp(-size*prec/40))
			rec.Report("runtime", 0.05*size*prec)
			rec.Report("energy", 2+0.8*size*prec)
			return nil
		},
		Seed: 42,
	}

	rep, err := study.Run(24)
	exitOn(err)

	fmt.Println("== all trials ==")
	exitOn(report.Table(os.Stdout, rep))

	front, _ := rep.FrontIDs(0, "accuracy", "runtime")
	fmt.Printf("\naccuracy/runtime Pareto front: trials %v\n\n", front)
	exitOn(report.ASCIIScatter(os.Stdout, rep, report.ScatterSpec{
		X: "runtime", Y: "accuracy", Title: "accuracy vs runtime",
	}))
	if best, ok := rep.Best("accuracy"); ok {
		fmt.Printf("\nbest accuracy: trial %d (%s)\n", best.ID, best.Params)
	}
}

// exitOn ends the program with err, if there is one.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
