package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rldecide/internal/airdrop"
	"rldecide/internal/core"
	"rldecide/internal/distrib"
	"rldecide/internal/executor"
	"rldecide/internal/experiments"
	"rldecide/internal/gym"
	"rldecide/internal/journal"
	"rldecide/internal/mathx"
	"rldecide/internal/nn"
	"rldecide/internal/obs"
	"rldecide/internal/ode"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/rl"
	"rldecide/internal/rl/ppo"
	"rldecide/internal/rl/sac"
	"rldecide/internal/search"
	"rldecide/internal/shard"
	"rldecide/internal/studyd"
	"rldecide/internal/tensor"
)

// Probes run after a traced run's timed phase: they call one layer's
// public functions directly, on the run's own data, and time them. They
// give the per-layer numbers spans cannot (a span from outside sees a
// handler, not the Rank call inside it). Each probe runs only on the
// workload whose end-to-end metric it should move.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probe times f: batches of inner calls, median per call, in ns.
func (r *run) probe(inner int, f func()) float64 {
	return float64(timeMedian(inner, 5, r.sz.ProbeBudget, f))
}

// scrape sums the series of each family in a registry's text exposition.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out
}

// poolCounters snapshots the process-wide library counters (the tensor
// pool's among them).
func poolCounters() map[string]float64 { return scrape(obs.Default) }

// coreMetrics is Spec.Metrics as core.Metric values.
func coreMetrics(spec studyd.Spec) []core.Metric {
	out := make([]core.Metric, len(spec.Metrics))
	for i, m := range spec.Metrics {
		out[i] = core.Metric{Name: m.Name, Unit: m.Unit, Direction: pareto.Minimize}
		if m.Direction == "max" {
			out[i].Direction = pareto.Maximize
		}
	}
	return out
}

// sphere is the harness's copy of the built-in objective, for running a
// core.Study with no daemon around it.
func sphere(metrics []core.Metric) core.Objective {
	return func(a param.Assignment, _ uint64, rec *core.Recorder) error {
		sq, l1 := 0.0, 0.0
		for _, b := range a {
			v := b.Value.Float()
			sq += v * v
			l1 += max(v, -v)
		}
		rec.Report(metrics[0].Name, sq)
		rec.Report(metrics[1].Name, l1)
		return nil
	}
}

// noRank lets the replay probe time Resume + RunContext without the final
// ranking (core.rank_ms_* reports that on its own).
type noRank struct{}

func (noRank) Name() string                                  { return "none" }
func (noRank) Rank([]core.Trial, []core.Metric) core.Ranking { return core.Ranking{} }

// bareStudy is spec as a core.Study with nothing of studyd around it.
func bareStudy(spec studyd.Spec, ranker core.Ranker) (*core.Study, error) {
	space, err := spec.Space()
	if err != nil {
		return nil, err
	}
	metrics := coreMetrics(spec)
	return &core.Study{
		CaseStudy: core.CaseStudy{Name: spec.Name}, Space: space, Explorer: search.RandomSearch{},
		Metrics: metrics, Ranker: ranker, Objective: sphere(metrics),
		Parallelism: spec.Parallelism, Seed: spec.Seed,
	}, nil
}

// probeRank times the ranker on the completed trials of m.
func (r *run) probeRank(name string, m *studyd.ManagedStudy) {
	metrics := coreMetrics(m.Spec)
	completed := (&core.Report{Metrics: metrics, Trials: m.Trials()}).Completed()
	r.layer(name, r.probe(1, func() { sink = core.ParetoRanker{Eps: m.Spec.Eps}.Rank(completed, metrics) })/nsPerMs)
}

// probeLocalRun times one trial through the local executor, spec decode
// and objective rebuild included.
func (r *run) probeLocalRun(m *studyd.ManagedStudy) {
	raw, err := json.Marshal(m.Spec)
	trials := m.Trials()
	if err != nil || len(trials) == 0 {
		return
	}
	t := trials[0]
	req := executor.TrialRequest{StudyID: m.ID, TrialID: t.ID, Spec: raw, SpecHash: executor.SpecHashOf(raw),
		Params: journal.FromTrial(t).Params, Seed: t.Seed}
	local := executor.NewLocal(r.nproc, studyd.EvaluateRequest)
	r.layer("executor.local_run_us", r.probe(50, func() {
		res, err := local.Run(context.Background(), req)
		if err != nil {
			r.fail(fmt.Errorf("probe executor.Local.Run: %w", err))
		}
		sink = res
	})/nsPerUs)
}

// probeFleet: the control-plane layers under fleet_sphere.
func (r *run) probeFleet(topo *topology, id string) {
	m := topo.study(id)
	spec := m.Spec
	trials := m.Trials()
	space, err := spec.Space()
	if err != nil {
		return
	}

	// shard: placement at the load the run ended with.
	var names []string
	load := map[string]int{}
	for _, d := range topo.daemons {
		names = append(names, d.Name())
		load[d.Name()] = len(d.Store().List())
	}
	ring := shard.NewRing(names)
	key, _ := json.Marshal(spec) // a spec just decoded from JSON encodes
	r.layer("shard.place_us", r.probe(100, func() { sink = ring.Place(string(key), load) })/nsPerUs)

	// journal: appending the run's own trials.
	path := filepath.Join(topo.dir, "probe.trials.jsonl")
	if jw, err := journal.OpenSegmented(path, 0); err == nil {
		n := 0
		ns := r.probe(1, func() {
			for _, t := range trials {
				if err := jw.Append(t); err != nil {
					r.fail(fmt.Errorf("probe journal append: %w", err))
				}
			}
			n += len(trials)
		})
		if err := jw.Close(); err != nil {
			r.fail(fmt.Errorf("probe journal close: %w", err))
		}
		r.layer("journal.append_us", ns/float64(len(trials))/nsPerUs)
		if fi, err := os.Stat(path); err == nil && n > 0 {
			r.layer("journal.bytes_per_trial", float64(fi.Size())/float64(n))
		}
	}

	r.probeRank("core.rank_ms_400", m)

	// core: the same spec as a bare study — the floor under trials_per_s.
	r.layer("core.loop_us_per_trial", r.probe(1, func() {
		st, err := bareStudy(spec, core.ParetoRanker{})
		if err == nil {
			sink, err = st.Run(spec.Budget)
		}
		if err != nil {
			r.fail(fmt.Errorf("probe core.Study: %w", err))
		}
	})/float64(spec.Budget)/nsPerUs)

	// search: one proposal.
	rng := mathx.NewRand(spec.Seed)
	r.layer("search.random_next_ns", r.probe(1000, func() { sink, _ = search.RandomSearch{}.Next(rng, space, nil) }))
	hist := make([]search.Observation, 0, 300)
	for _, t := range trials[:min(300, len(trials))] {
		hist = append(hist, search.Observation{Assignment: t.Params, Objective: t.Values.At(spec.Metrics[0].Name)})
	}
	r.layer("search.tpe_next_us_h300", r.probe(10, func() { sink, _ = search.TPE{}.Next(rng, space, hist) })/nsPerUs)

	// obs: one event, nobody listening and four drained subscribers.
	ev := obs.Event{Kind: obs.KindTrialDone, Study: m.ID, Trial: 1, Status: "ok"}
	bus := obs.NewBus()
	r.layer("obs.publish_ns_sub0", r.probe(1000, func() { bus.Publish(ev) }))
	drained := make(chan struct{})
	for i := 0; i < 4; i++ {
		sub := bus.Subscribe(256)
		go func() {
			for range sub.Events() {
			}
			drained <- struct{}{}
		}()
	}
	r.layer("obs.publish_ns_sub4", r.probe(1000, func() { bus.Publish(ev) }))
	_ = bus.Close() // always nil; closes the subscriptions, which ends the drainers
	for i := 0; i < 4; i++ {
		<-drained
	}
	r.layer("obs.bus_dropped", busDropped(topo))
}

// busDropped sums rldecide_bus_dropped_total over the topology's daemons
// and router.
func busDropped(topo *topology) float64 {
	total := scrape(topo.router.Registry())["rldecide_bus_dropped_total"]
	for _, d := range topo.daemons {
		total += scrape(d.Registry())["rldecide_bus_dropped_total"]
	}
	return total
}

// probeReads: the read-side layers under read_mix, on the static study.
func (r *run) probeReads(topo *topology, st *staticStudy) {
	m := topo.study(st.id)
	r.layer("studyd.front_call_ms", r.probe(1, func() { sink, _ = m.Front() })/nsPerMs)
	r.layer("studyd.trials_call_ms", r.probe(1, func() {
		trials := m.Trials()
		records := make([]journal.Record, len(trials))
		for i, t := range trials {
			records[i] = journal.FromTrial(t)
		}
		sink = records
	})/nsPerMs)

	r.probeRank("core.rank_ms_2000", m)
	metrics := coreMetrics(m.Spec)
	rep := &core.Report{Metrics: metrics, Trials: m.Trials()}
	pts, dirs, err := rep.Points(metrics[0].Name, metrics[1].Name)
	if err == nil {
		r.layer("pareto.nds_ms_2000", r.probe(1, func() { sink = pareto.NonDominatedSort(pts, dirs) })/nsPerMs)
		r.layer("pareto.front_us_2000", r.probe(1, func() { sink = pareto.Front(pts, dirs) })/nsPerUs)
	}

	d := topo.daemons[0]
	r.layer("obs.metrics_write_ms", r.probe(1, func() {
		_ = obs.Default.WriteText(io.Discard) // io.Discard cannot fail
		_ = d.Registry().WriteText(io.Discard)
	})/nsPerMs)
	r.layer("obs.bus_dropped", busDropped(topo))
	r.probeLocalRun(m)
}

// probeJournal: the recovery-side layers under resume_replay, on the
// journals of a repeat's resumed (complete again) directory.
func (r *run) probeJournal(dir string, studies []*studyd.ManagedStudy) {
	m := studies[0]
	path := filepath.Join(dir, m.ID+".trials.jsonl")
	var records []journal.Record
	ns := r.probe(1, func() {
		var err error
		if records, err = journal.ReadSegmented(path); err != nil {
			r.fail(fmt.Errorf("probe journal read: %w", err))
		}
	})
	if len(records) == 0 {
		return
	}
	r.layer("journal.read_records_per_s", float64(len(records))/(ns/1e9))

	// Repair needs a torn file each time: tear a copy, then time the repair.
	raw, err := os.ReadFile(path)
	if err == nil {
		torn := filepath.Join(dir, "probe-torn.trials.jsonl")
		var took []float64
		for i := 0; i < 5; i++ {
			if err = os.WriteFile(torn, raw, 0o644); err != nil {
				break
			}
			if err = tear(torn, r.sz.ResumeKeep, true); err != nil {
				break
			}
			t0 := now()
			recs, rerr := journal.RepairSegmented(torn)
			took = append(took, ms(now()-t0))
			if rerr != nil || len(recs) != r.sz.ResumeKeep {
				r.fail(fmt.Errorf("probe journal repair: %d records, %v", len(recs), rerr))
			}
		}
		if err == nil {
			r.layer("journal.repair_ms", median(took))
		}
	}

	space, err := m.Spec.Space()
	if err != nil {
		return
	}
	r.layer("journal.totrial_us", r.probe(1, func() { sink, _ = journal.Trials(records, space) })/float64(len(records))/nsPerUs)

	// core: Resume + a RunContext that only replays the explorer.
	trials := m.Trials()
	r.layer("core.resume_replay_us_per_trial", r.probe(1, func() {
		st, err := bareStudy(m.Spec, noRank{})
		if err == nil {
			err = st.Resume(trials)
		}
		if err == nil {
			sink, err = st.Run(m.Spec.Budget)
		}
		if err != nil {
			r.fail(fmt.Errorf("probe core resume: %w", err))
		}
	})/float64(len(trials))/nsPerUs)
	r.probeLocalRun(m)
}

// probeCampaign: the training-side layers under campaign_tablei, at the
// campaign's shapes (batch 32, 7 -> 64 -> 64 -> 3, four environments).
func (r *run) probeCampaign(before map[string]float64) {
	r.layer("tensor.stolen_chunks", poolCounters()["rldecide_tensor_stolen_chunks_total"]-before["rldecide_tensor_stolen_chunks_total"])

	// distrib: one training job per framework (bench_test.go's ablations).
	for _, job := range []struct {
		name string
		sol  experiments.Solution
	}{
		{"distrib.train_s.rayx", experiments.Solution{RKOrder: 8, Framework: distrib.RLlib, Algo: distrib.PPO, Nodes: 1, Cores: 4}},
		{"distrib.train_s.sbx", experiments.Solution{RKOrder: 8, Framework: distrib.StableBaselines, Algo: distrib.PPO, Nodes: 1, Cores: 4}},
		{"distrib.train_s.tfax", experiments.Solution{RKOrder: 3, Framework: distrib.TFAgents, Algo: distrib.PPO, Nodes: 1, Cores: 4}},
	} {
		name, sol := job.name, job.sol
		var took []float64
		for i := 0; i < 3; i++ {
			t0 := now()
			if _, err := experiments.RunSolutionOnce(sol, r.sz.Scale, r.seed+uint64(i)); err != nil {
				r.fail(fmt.Errorf("probe %s: %w", name, err))
			}
			took = append(took, (now() - t0).Seconds())
		}
		r.layer(name, median(took))
	}

	// rl: one PPO collection and update, one SAC gradient round.
	cfg := experiments.Solution{RKOrder: 5}.EnvConfig()
	seeder := mathx.NewSeeder(r.seed)
	vec := gym.NewVec(airdrop.Make(cfg), 4, seeder, false)
	learner := ppo.New(ppo.Config{}, vec.ObservationSpace().Dim(), 3, seeder.Next())
	col := ppo.NewCollector(vec)
	var roll *rl.Rollout
	r.layer("rl.ppo_collect_ms", r.probe(1, func() { roll = col.Collect(learner, r.sz.Scale.RolloutSteps) })/nsPerMs)
	r.layer("rl.ppo_update_ms", r.probe(1, func() { sink = learner.Update(roll) })/nsPerMs)

	agent := sac.New(sac.Config{StartSteps: 1, Batch: r.sz.Scale.SACBatch, BufferSize: 100_000}, airdrop.ObsDim, 3, seeder.Next())
	rng := mathx.NewRand(r.seed)
	tr := func() rl.Transition {
		o, n := make([]float64, airdrop.ObsDim), make([]float64, airdrop.ObsDim)
		for i := range o {
			o[i], n[i] = rng.Float64()-0.5, rng.Float64()-0.5
		}
		return rl.Transition{Obs: o, Action: rng.IntN(3), Reward: rng.Float64(), NextObs: n}
	}
	for i := 0; i < 2*r.sz.Scale.SACBatch; i++ {
		agent.Observe(tr())
	}
	next := tr()
	r.layer("rl.sac_update_us", r.probe(20, func() { sink, _ = agent.Observe(next) })/nsPerUs)

	// nn: one forward+backward pass of the policy network.
	mlp := nn.NewMLP(rng, []int{7, 64, 64, 3}, nn.Tanh{}, 0.01)
	x, dout := randMat(rng, 32, 7), randMat(rng, 32, 3)
	r.layer("nn.fwdbwd_us", r.probe(50, func() {
		mlp.ZeroGrad()
		mlp.Forward(x)
		mlp.Backward(dout)
	})/nsPerUs)

	// tensor: the three forward products and the hidden layer's input
	// gradient (dy 32x64 times W^T, W 64x64).
	for _, s := range [][3]int{{32, 7, 64}, {32, 64, 64}, {32, 64, 3}} {
		a, b, dst := randMat(rng, s[0], s[1]), randMat(rng, s[1], s[2]), tensor.New(s[0], s[2])
		var bt *tensor.Mat
		r.layer(fmt.Sprintf("tensor.matmul_ns.%dx%dx%d", s[0], s[1], s[2]), r.probe(200, func() { bt = tensor.MulIntoPacked(dst, a, b, bt) }))
	}
	dy, w, dx := randMat(rng, 32, 64), randMat(rng, 64, 64), tensor.New(32, 64)
	r.layer("tensor.transb_ns.32x64x64", r.probe(200, func() { tensor.MulTransBInto(dx, dy, w) }))

	// airdrop / ode / gym: one control step per RK order, one RK8 stepper
	// step, one step of the four-environment vector.
	for _, order := range []int{3, 5, 8} {
		c := cfg
		c.RKOrder = order
		env := airdrop.MustNew(c, r.seed)
		ap := airdrop.Autopilot{}
		o := env.Reset()
		r.layer(fmt.Sprintf("airdrop.step_ns.rk%d", order), r.probe(200, func() {
			res := env.Step(ap.Act(o))
			o = res.Obs
			if res.Done {
				o = env.Reset()
			}
		}))
	}
	const dim = 6
	stepper := ode.NewStepper(ode.RK8(), dim)
	y, ynew := make([]float64, dim), make([]float64, dim)
	for i := range y {
		y[i] = 1
	}
	decay := func(_ float64, y, dydt []float64) {
		for i := range y {
			dydt[i] = -y[i]
		}
	}
	r.layer("ode.step_ns.rk8", r.probe(1000, func() { sink = stepper.Step(decay, 0, y, 0.01, ynew, nil) }))

	actions := make([][]float64, vec.N())
	for i := range actions {
		actions[i] = []float64{1}
	}
	vec.Reset()
	r.layer("gym.vec_step_us", r.probe(100, func() { sink = vec.Step(actions) })/nsPerUs)
}

func randMat(rng interface{ Float64() float64 }, rows, cols int) *tensor.Mat {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64() - 0.5
	}
	return m
}
