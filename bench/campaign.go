package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"strings"

	"rldecide/internal/core"
	"rldecide/internal/experiments"
	"rldecide/internal/param"
)

// tableISeed1 is the %x fingerprint of every metric of the Table I campaign
// of seed 1. The replay contract makes the campaign a pure function of
// (scale, seed), so the comparison is an equality.
//
//go:embed testdata/tablei_seed1.fp
var tableISeed1 string

// fingerprint renders every outcome metric in hex floats.
func fingerprint(rep *core.Report) string {
	var b strings.Builder
	for _, o := range experiments.Outcomes(rep) {
		fmt.Fprintf(&b, "%d:%x,%x,%x,%x;", o.ID, o.Reward, o.TimeMinutes, o.PowerKJ, o.Utilization)
	}
	return b.String()
}

// runCampaign runs one Table I campaign: experiments.Campaign with the
// harness's timer around the objective, one span per configuration on a
// traced run. Each configuration's wall goes to walls under its key.
func runCampaign(r *run, scale experiments.Scale, seed uint64, walls map[string][]float64) (*core.Report, error) {
	study := experiments.NewTableIStudy(scale, seed, r.nproc)
	inner := study.Objective
	study.Objective = func(a param.Assignment, s uint64, rec *core.Recorder) (err error) {
		d := r.rec.timed("experiments", "config-"+a.Value("algo").Str(), fmt.Sprintf("campaign-%d", seed), func() {
			err = inner(a, s, rec)
		})
		r.mu.Lock()
		walls[a.Key()] = append(walls[a.Key()], ms(d))
		r.mu.Unlock()
		return err
	}
	return study.Run(len(experiments.TableI()))
}

// readFigureFronts is the campaign's user reading the three fronts of
// figures 4-6 off the report. A read is microseconds, so one sample is the
// mean over a batch of reads.
func readFigureFronts(rep *core.Report, batch, samples int) ([]float64, error) {
	out := make([]float64, 0, samples)
	runtime.GC() // the campaign's garbage is not the reader's

	for s := 0; s < samples; s++ {
		t0 := now()
		for b := 0; b < batch; b++ {
			for _, fig := range experiments.Figures() {
				if _, err := experiments.MeasuredFront(rep, fig, experiments.FrontEps); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, ms(now()-t0)/float64(batch))
	}
	return out, nil
}

// campaignTableI: the paper's own 18-configuration campaign at the micro
// scale of bench_test.go. tensor/nn/rl/airdrop/ode/distrib/gym do all the
// work and the control plane none.
func campaignTableI(r *run) error {
	_, err := setup(r, func() (struct{}, error) {
		// Warm-up: a campaign small enough to be cheap that still enters
		// every training path, so pools and scratch buffers exist.
		rep, err := experiments.Campaign(r.sz.WarmScale, r.seed, r.nproc)
		if err == nil && len(experiments.Outcomes(rep)) != len(experiments.TableI()) {
			err = fmt.Errorf("warm-up campaign is incomplete")
		}
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	// Every campaign of a run has the run's seed, so its 18 configurations
	// are the same 18 pieces of work each time and the repeats of one can be
	// told apart by nothing but the machine.
	want := strings.TrimSpace(tableISeed1)
	n := max(1, int(r.seconds/r.sz.CampaignEvery))
	walls := map[string][]float64{}
	var whole, fronts []float64
	pool := poolCounters()
	for i := 0; i < n; i++ {
		var rep *core.Report
		var err error
		d := r.rec.timed("experiments", "campaign", fmt.Sprintf("campaign-%d", i), func() {
			rep, err = runCampaign(r, r.sz.Scale, r.seed, walls)
		})
		r.op(err)
		if err != nil {
			return fmt.Errorf("campaign_tablei: campaign %d: %w", i, err)
		}
		whole = append(whole, d.Seconds())
		r.check(len(experiments.Outcomes(rep)) == len(experiments.TableI()), "campaign %d: %d outcomes, want %d",
			i, len(experiments.Outcomes(rep)), len(experiments.TableI()))
		if r.seed == 1 && r.sz.Scale == benchScale() {
			r.check(fingerprint(rep) == want, "campaign %d: metric fingerprint differs from testdata/tablei_seed1.fp", i)
		}
		f, err := readFigureFronts(rep, r.sz.FrontBatch, r.sz.FrontSamples)
		r.op(err)
		fronts = append(fronts, f...)
	}
	// A configuration is a trial of the campaign's one study, and its wall is
	// the median of the quiet fifth of its repeats (of two, the faster). The
	// campaign a quiet machine would have run is the 18 of them end to end,
	// times what a whole campaign took of the sum of its own configurations'
	// walls (1 at parallelism 1, less when they overlap).
	var configs, overlap []float64
	for i, wall := range whole {
		own := 0.0
		for _, w := range walls {
			own += w[i] / 1e3
		}
		overlap = append(overlap, wall/own)
	}
	for _, key := range sortedKeys(walls) {
		configs = append(configs, median(quietTimes(walls[key])))
	}
	campaign := sum(configs) / 1e3 * median(overlap)
	r.set("trials_per_s", float64(len(configs))/campaign, "1/s")
	r.set("study_done_ms_p50", median(configs), "ms")
	r.set("front_ms_p50", median(quietTimes(fronts)), "ms")
	r.setLocal("study_done_ms_p95", quantile(configs, 0.95), "ms")
	r.setLocal("front_ms_p90", quantile(fronts, 0.90), "ms")
	r.setLocal("campaign_s", campaign, "s")

	if r.rec != nil {
		r.probeCampaign(pool)
	}
	return nil
}
