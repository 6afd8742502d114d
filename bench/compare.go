package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
)

// envInfo records what a results file was measured on.
type envInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Runs      int    `json:"runs"` // fresh-process runs per workload; values are their medians
	Sizes     sizes  `json:"sizes"`
}

func currentEnv(seed uint64, seconds, runs int) envInfo {
	return envInfo{NProc: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Runs: runs, Sizes: fullSizes()}
}

// workloadResults is one workload's block of a results file.
type workloadResults struct {
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
}

// resultsFile is bench/out/results.json (and bench/baseline.json).
type resultsFile struct {
	Env       envInfo                    `json:"env"`
	Workloads map[string]workloadResults `json:"workloads"`
}

// bound is how far an end-to-end metric may move the wrong way, as a share
// of the first file's value, before -compare fails.
type bound struct {
	higherIsBetter bool
	share          float64
}

// bounds covers the end_to_end set of BENCHMARK.json (the first four, same
// shares) and the end-to-end metrics only -compare gates: the tails, memory
// and the workload-local ones. The shares are set from the spread
// between runs of one commit on a 2-core shared VM (README.md, "Bounds"):
// a tighter bound there fails on noise alone. fail_ratio may not rise at
// all.
var bounds = map[string]bound{
	"setup_s":           {false, 0.25},
	"trials_per_s":      {true, 0.25},
	"study_done_ms_p50": {false, 0.25},
	"front_ms_p50":      {false, 0.25},

	"study_done_ms_p95": {false, 0.25},
	"front_ms_p90":      {false, 0.25},
	"peak_rss_mb":       {false, 0.25},
	"trials_ms_p50":     {false, 0.25},
	"trials_ms_p90":     {false, 0.25},
	"reads_per_s":       {true, 0.25},
	"write_ms_p50":      {false, 0.25},
	"campaign_s":        {false, 0.25},
	"recover_s":         {false, 0.25},
	"resume_done_s":     {false, 0.25},
	"fail_ratio":        {false, 0},
}

func loadResults(path string) (resultsFile, error) {
	var rf resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints one row per workload × end-to-end metric with both
// values and b/a, and returns 1 when any metric of b is outside its bound
// relative to a (or missing), 2 when a file cannot be read.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b resultsFile) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wl := range workloadOrder {
		wa, ok := a.Workloads[wl]
		if !ok {
			continue
		}
		wb := b.Workloads[wl]
		for _, name := range sortedKeys(wa.EndToEnd) {
			bd, gated := bounds[name]
			if !gated {
				continue
			}
			va := wa.EndToEnd[name].Value
			mb, present := wb.EndToEnd[name]
			verdict := "ok"
			ratio := 0.0
			switch {
			case !present:
				verdict = "MISSING"
			case va == 0:
				// Only fail_ratio is ever zero: any rise is a regression.
				if mb.Value > 0 {
					verdict = "WORSE"
				}
			default:
				ratio = mb.Value / va
				if worse := ratio - 1; bd.higherIsBetter && -worse > bd.share || !bd.higherIsBetter && worse > bd.share {
					verdict = "WORSE"
				}
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %9.4f %7.0f%%  %s (base a = %.6g %s)\n",
				wl, name, va, mb.Value, ratio, bd.share*100, verdict, va, wa.EndToEnd[name].Unit)
		}
	}
	return code
}
