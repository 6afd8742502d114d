// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations over the design choices DESIGN.md calls out
// (Runge-Kutta order, node scaling, vectorization width, exploratory
// method). The per-iteration work uses a micro training scale so the
// benchmarks measure harness cost, while the full-shape campaign is run by
// cmd/airdrop-study (see EXPERIMENTS.md for the recorded numbers).
package rldecide_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rldecide/internal/airdrop"
	"rldecide/internal/core"
	"rldecide/internal/distrib"
	"rldecide/internal/executor"
	"rldecide/internal/experiments"
	"rldecide/internal/journal"
	"rldecide/internal/mathx"
	"rldecide/internal/nn"
	"rldecide/internal/obs"
	"rldecide/internal/param"
	"rldecide/internal/pareto"
	"rldecide/internal/report"
	"rldecide/internal/search"
	"rldecide/internal/shard"
	"rldecide/internal/studyd"
	"rldecide/internal/tensor"
)

// benchScale is a micro training budget for benchmark iterations.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.TotalSteps = 1_000
	s.SACStartSteps = 300
	s.SACBatch = 32
	s.EvalEpisodes = 5
	s.RolloutSteps = 32
	return s
}

// BenchmarkTableI regenerates the full 18-configuration campaign of
// Table I (reward / computation time / power consumption per learning
// configuration) at micro scale.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Campaign(benchScale(), uint64(i)+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.Outcomes(rep)) != 18 {
			b.Fatal("incomplete campaign")
		}
	}
}

// BenchmarkTableIInstrumented is the observability overhead gate: the
// same 18-configuration campaign as BenchmarkTableI, run with the obs
// event bus live (per-trial events + a JSONL tracer draining to
// io.Discard), the deployment shape of a tracing daemon. The delta
// against BenchmarkTableI is the whole cost of per-trial observability
// and must stay within benchgate's time tolerance with no added
// allocations on the training path.
func BenchmarkTableIInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bus := obs.NewBus()
		tracer := obs.NewTracer(bus, io.Discard)
		study := experiments.NewTableIStudy(benchScale(), uint64(i)+1, 1)
		study.OnTrial = func(tr core.Trial) {
			bus.Publish(obs.Event{Kind: obs.KindTrialStart, Study: "bench", Trial: tr.ID})
			bus.Publish(obs.Event{Kind: obs.KindTrialDone, Study: "bench", Trial: tr.ID, Status: "ok"})
		}
		rep, err := study.Run(len(experiments.TableI()))
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.Outcomes(rep)) != 18 {
			b.Fatal("incomplete campaign")
		}
		_ = bus.Close()
		if err := tracer.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// campaignOnce memoizes one micro campaign for the figure benchmarks.
var campaignOnce = sync.OnceValues(func() (*core.Report, error) {
	return experiments.Campaign(benchScale(), 7, 1)
})

func benchFigure(b *testing.B, number int) {
	rep, err := campaignOnce()
	if err != nil {
		b.Fatal(err)
	}
	fig, err := experiments.FigureByNumber(number)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MeasuredFront(rep, fig, experiments.FrontEps); err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFigure(io.Discard, rep, fig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the Reward-vs-Computation-Time Pareto front.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFigure5 regenerates the Power-vs-Computation-Time Pareto front.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFigure6 regenerates the Reward-vs-Power Pareto front.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

// --- Ablations -----------------------------------------------------------

// benchTrain runs one micro training job.
func benchTrain(b *testing.B, sol experiments.Solution) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSolutionOnce(sol, benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRKOrder3/5/8 isolate the Runge-Kutta order, the paper's
// environment-side accuracy/cost knob (same framework, algo, deployment).
func BenchmarkAblationRKOrder3(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 3, Framework: distrib.StableBaselines, Algo: distrib.PPO, Nodes: 1, Cores: 4})
}

func BenchmarkAblationRKOrder5(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 5, Framework: distrib.StableBaselines, Algo: distrib.PPO, Nodes: 1, Cores: 4})
}

func BenchmarkAblationRKOrder8(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 8, Framework: distrib.StableBaselines, Algo: distrib.PPO, Nodes: 1, Cores: 4})
}

// BenchmarkAblationNodes1/2 isolate multi-node distribution (the paper's
// solutions 7 vs 8).
func BenchmarkAblationNodes1(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 8, Framework: distrib.RLlib, Algo: distrib.PPO, Nodes: 1, Cores: 4})
}

func BenchmarkAblationNodes2(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 8, Framework: distrib.RLlib, Algo: distrib.PPO, Nodes: 2, Cores: 4})
}

// BenchmarkAblationCores2/4 isolate vectorization width (solutions 10 vs
// 11).
func BenchmarkAblationCores2(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 3, Framework: distrib.TFAgents, Algo: distrib.PPO, Nodes: 1, Cores: 2})
}

func BenchmarkAblationCores4(b *testing.B) {
	benchTrain(b, experiments.Solution{RKOrder: 3, Framework: distrib.TFAgents, Algo: distrib.PPO, Nodes: 1, Cores: 4})
}

// BenchmarkExplorerRandom/Grid/TPE compare the exploratory methods' cost
// of proposing 100 configurations over the campaign space.
func benchExplorer(b *testing.B, mk func() search.Explorer) {
	space := experiments.Space()
	rng := mathx.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := mk()
		var hist []search.Observation
		for j := 0; j < 100; j++ {
			a, ok := ex.Next(rng, space, hist)
			if !ok {
				break
			}
			hist = append(hist, search.Observation{Assignment: a, Objective: float64(j % 7)})
		}
	}
}

func BenchmarkExplorerRandom(b *testing.B) {
	benchExplorer(b, func() search.Explorer { return search.RandomSearch{} })
}

func BenchmarkExplorerGrid(b *testing.B) {
	benchExplorer(b, func() search.Explorer { return &search.GridSearch{} })
}

func BenchmarkExplorerTPE(b *testing.B) {
	benchExplorer(b, func() search.Explorer { return search.TPE{} })
}

// BenchmarkEnvEpisode measures one full simulator episode under the
// scripted autopilot (the case study's raw compute).
func BenchmarkEnvEpisode(b *testing.B) {
	env := airdrop.MustNew(airdrop.NewConfig(), 1)
	ap := airdrop.Autopilot{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := env.Reset()
		for {
			res := env.Step(ap.Act(obs))
			obs = res.Obs
			if res.Done {
				break
			}
		}
	}
}

// BenchmarkNNForwardBackward measures one training pass of the policy
// network at campaign shapes (batch 32, obs 7 -> 64 -> 64 -> 3). The
// steady-state target is zero allocations per pass (see
// internal/nn/alloc_test.go for the hard regression gate).
func BenchmarkNNForwardBackward(b *testing.B) {
	rng := mathx.NewRand(1)
	m := nn.NewMLP(rng, []int{7, 64, 64, 3}, nn.Tanh{}, 0.01)
	x := tensor.New(32, 7)
	for i := range x.Data {
		x.Data[i] = rng.Float64() - 0.5
	}
	dout := tensor.New(32, 3)
	for i := range dout.Data {
		dout.Data[i] = rng.Float64() - 0.5
	}
	m.ZeroGrad()
	m.Forward(x)
	m.Backward(dout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		m.Forward(x)
		m.Backward(dout)
	}
}

// BenchmarkReportTable measures rendering the campaign table.
func BenchmarkReportTable(b *testing.B) {
	rep, err := campaignOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := report.Table(io.Discard, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyOverhead measures the methodology pipeline itself with a
// free objective (no training), isolating core/search/pareto costs.
func BenchmarkStudyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study := &core.Study{
			CaseStudy: core.CaseStudy{Name: "overhead"},
			Space:     experiments.Space(),
			Explorer:  search.RandomSearch{},
			Metrics:   experiments.Metrics(),
			Ranker:    core.ParetoRanker{},
			Objective: func(a param.Assignment, seed uint64, rec *core.Recorder) error {
				rec.Report(experiments.MetricReward, -float64(seed%100)/100)
				rec.Report(experiments.MetricTime, float64(seed%60)+40)
				rec.Report(experiments.MetricPower, float64(seed%200)+100)
				rec.Report(experiments.MetricUtil, 0.9)
				return nil
			},
			Seed: uint64(i) + 1,
		}
		if _, err := study.Run(50); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRank ranks 2000 finished trials through core.ParetoRanker, the call
// behind every studyd /front request and every study finish.
func benchRank(b *testing.B, names []string, values func(x0, x1, x2 float64) []float64) {
	metrics := make([]core.Metric, len(names))
	for i, n := range names {
		metrics[i] = core.Metric{Name: n, Direction: pareto.Minimize}
	}
	rng := mathx.NewRand(1)
	trials := make([]core.Trial, 2000)
	for i := range trials {
		trials[i].ID = i
		vals := values(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)
		for j, n := range names {
			trials[i].Values.Set(n, vals[j])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := (core.ParetoRanker{}).Rank(trials, metrics); len(r.Fronts) == 0 {
			b.Fatal("empty ranking")
		}
	}
}

// BenchmarkRank2000 has the shape of studyd's two-metric sphere studies
// (x0²+x1² against |x0|+|x1|, both minimized): correlated objectives, so a
// small front 0 over a deep stack of fronts.
func BenchmarkRank2000(b *testing.B) {
	benchRank(b, []string{"f", "cost"}, func(x0, x1, _ float64) []float64 {
		return []float64{x0*x0 + x1*x1, math.Abs(x0) + math.Abs(x1)}
	})
}

// BenchmarkRank2000x3 ranks three independent uniform objectives: wide
// fronts, and past two objectives every front member may need a look.
func BenchmarkRank2000x3(b *testing.B) {
	benchRank(b, []string{"a", "b", "c"}, func(x0, x1, x2 float64) []float64 {
		return []float64{x0, x1, x2}
	})
}

// BenchmarkFront2200 is resume_replay's front read: ManagedStudy.Front()
// on a done 2200-trial sphere study, the call that benchmark times as
// front_ms_p50 — the completed-trial filter, the Pareto rank and the
// mapping of each front to sorted trial IDs, with no JSON encoding.
func BenchmarkFront2200(b *testing.B) {
	d, err := studyd.New(studyd.Config{Dir: b.TempDir(), Workers: 2, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	m, err := d.Submit(benchSphereSpec(2200))
	if err != nil {
		b.Fatal(err)
	}
	<-m.Done()
	if m.Status() != studyd.StatusDone {
		b.Fatalf("study %s: %s", m.ID, m.Status())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := m.Front()
		if err != nil || fr.Completed != 2200 || len(fr.Fronts) == 0 {
			b.Fatalf("front of %d completed trials in %d fronts, %v", fr.Completed, len(fr.Fronts), err)
		}
	}
}

// BenchmarkJournalRecover2000 is what studyd.New does per study on a
// crashed state directory: a journal of 2000 sphere-shaped records with
// half a record after them is repaired and read back into trials, in the
// one pass of journal.RecoverSegmented.
// Each iteration first puts the torn file back (repair mends it in place),
// so the file write is inside the timing on both sides of any comparison.
func BenchmarkJournalRecover2000(b *testing.B) {
	const n = 2000
	space := param.MustSpace(param.NewFloatRange("x0", -5, 5), param.NewFloatRange("x1", -5, 5))
	path := filepath.Join(b.TempDir(), "s0001.trials.jsonl")
	w, err := journal.OpenSegmented(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRand(1)
	for id := 1; id <= n+1; id++ {
		a := space.Sample(rng)
		x0, x1 := a.Value("x0").Float(), a.Value("x1").Float()
		tr := core.Trial{ID: id, Params: a, Seed: rng.Uint64(), WallMs: rng.Float64()}
		tr.Values.Set("f", x0*x0+x1*x1)
		tr.Values.Set("cost", math.Abs(x0)+math.Abs(x1))
		if err := w.Append(tr); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	last := bytes.LastIndexByte(torn[:len(torn)-1], '\n') + 1
	torn = torn[:last+(len(torn)-last)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			b.Fatal(err)
		}
		trials, err := journal.RecoverSegmented(path, space)
		if err != nil || len(trials) != n {
			b.Fatalf("recovered %d trials, %v", len(trials), err)
		}
	}
}

// BenchmarkRestartToDone2200 is resume_replay's path for one study, without
// the harness: a daemon started on a crashed state directory, whose
// 2200-trial sphere study journaled 2000 trials and half of one more,
// recovers it (studyd.New) and resumes it to done (Start). Each iteration
// starts from a fresh copy of the crashed directory; the copy is inside
// the timing.
func BenchmarkRestartToDone2200(b *testing.B) {
	const budget, kept = 2200, 2000
	quiet := func(string, ...any) {}
	crashed := b.TempDir()
	d, err := studyd.New(studyd.Config{Dir: crashed, Workers: 2, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	m, err := d.Submit(benchSphereSpec(budget))
	if err != nil {
		b.Fatal(err)
	}
	<-m.Done()
	if err := d.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	spec, err := os.ReadFile(filepath.Join(crashed, m.ID+".spec.json"))
	if err != nil {
		b.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(crashed, m.ID+".trials.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	cut := 0
	for i := 0; i < kept; i++ {
		cut += bytes.IndexByte(full[cut:], '\n') + 1
	}
	torn := full[:cut+bytes.IndexByte(full[cut:], '\n')/2]
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.ID+".spec.json"), spec, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.ID+".trials.jsonl"), torn, 0o644); err != nil {
			b.Fatal(err)
		}
		d, err := studyd.New(studyd.Config{Dir: dir, Workers: 2, Logf: quiet})
		if err != nil {
			b.Fatal(err)
		}
		r, ok := d.Store().Get(m.ID)
		if !ok {
			b.Fatalf("study %s not recovered", m.ID)
		}
		d.Start()
		<-r.Done()
		if r.Status() != studyd.StatusDone || r.Summary().Finished != budget || r.Summary().Resumed != kept {
			b.Fatalf("study %s: %+v", r.ID, r.Summary())
		}
		if err := d.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenStore is a daemon restart over the state directory a
// service run leaves: studyd.New on 500 finished one-trial studies of a
// named daemon (spec, journal and ownership manifest each), every one
// loaded, none resumed. The directory is only read, so every iteration
// opens the same one.
func BenchmarkOpenStore(b *testing.B) {
	const n = 500
	quiet := func(string, ...any) {}
	dir := b.TempDir()
	d, err := studyd.New(studyd.Config{Dir: dir, Name: "d0", Workers: 2, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	for i := 0; i < n; i++ {
		m, err := d.Submit(benchSphereSpec(1))
		if err != nil {
			b.Fatal(err)
		}
		<-m.Done()
	}
	if err := d.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := studyd.New(studyd.Config{Dir: dir, Name: "d0", Workers: 2, Logf: quiet})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(d.Store().List()); got != n {
			b.Fatalf("%d studies loaded, want %d", got, n)
		}
		b.StopTimer()
		if err := d.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchSphereSpec is the two-float, two-metric sphere study the service
// benchmark (bench/) writes: the objective is nanoseconds, so everything
// measured around it is control plane.
func benchSphereSpec(budget int) studyd.Spec {
	return studyd.Spec{
		Name: "bench",
		Params: []studyd.ParamSpec{
			{Name: "x0", Type: "floatrange", Lo: -5, Hi: 5},
			{Name: "x1", Type: "floatrange", Lo: -5, Hi: 5},
		},
		Explorer:    studyd.ExplorerSpec{Type: "random"},
		Metrics:     []studyd.MetricSpec{{Name: "f", Direction: "min"}, {Name: "cost", Direction: "min"}},
		Objective:   "sphere",
		Budget:      budget,
		Parallelism: 2,
		Seed:        1,
	}
}

// BenchmarkEvaluateRequest is one trial through the evaluator every
// execution mode shares, as the daemon's scheduler and a fleet worker call
// it: full spec bytes plus their hash, parameters in journal rendering.
func BenchmarkEvaluateRequest(b *testing.B) {
	raw, err := json.Marshal(benchSphereSpec(300))
	if err != nil {
		b.Fatal(err)
	}
	req := executor.TrialRequest{StudyID: "s0001", TrialID: 1, Spec: raw, SpecHash: executor.SpecHashOf(raw),
		Params: map[string]string{"x0": "0.3142", "x1": "-2.718"}, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := studyd.EvaluateRequest(context.Background(), req)
		if err != nil || len(res.Values) != 2 {
			b.Fatalf("%+v, %v", res, err)
		}
	}
}

// BenchmarkDispatch is fleet_sphere's per-trial round trip without the
// daemon around it: one Fleet dispatching a hash-only sphere trial to one
// executor.Server over loopback HTTP — request encode, POST /run, request
// decode, evaluation, result encode and decode. The first dispatch (the one
// that ships the spec) is before the timer.
func BenchmarkDispatch(b *testing.B) {
	raw, err := json.Marshal(benchSphereSpec(300))
	if err != nil {
		b.Fatal(err)
	}
	ws := httptest.NewServer((&executor.Server{Name: "w1", Eval: studyd.EvaluateRequest}).Handler())
	defer ws.Close()
	f := executor.NewFleet(executor.FleetOptions{})
	if _, err := f.Upsert(executor.WorkerInfo{Name: "w1", URL: ws.URL, Slots: 1}); err != nil {
		b.Fatal(err)
	}
	req := executor.TrialRequest{StudyID: "s0001", TrialID: 1, Spec: raw, SpecHash: executor.SpecHashOf(raw),
		Params: map[string]string{"x0": "0.3142", "x1": "-2.718"}, Seed: 42}
	run := func() {
		res, err := f.Run(context.Background(), req)
		if err != nil || len(res.Values) != 2 || res.Worker != "w1" {
			b.Fatalf("%+v, %v", res, err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.TrialID = i + 2
		run()
	}
}

// BenchmarkLocalStudy300 is read_mix's write side without the HTTP hop: a
// 300-trial sphere study submitted to a local-executor daemon and run to
// done (explorer, executor lease, evaluation, journal append).
func BenchmarkLocalStudy300(b *testing.B) {
	d, err := studyd.New(studyd.Config{Dir: b.TempDir(), Workers: 2, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := d.Submit(benchSphereSpec(300))
		if err != nil {
			b.Fatal(err)
		}
		<-m.Done()
		if m.Status() != studyd.StatusDone || len(m.Trials()) != 300 {
			b.Fatalf("study %s: %s with %d trials", m.ID, m.Status(), len(m.Trials()))
		}
	}
}

// BenchmarkRouterList2000 is read_mix's GET /studies at the size the list
// reaches a few seconds into a run: one local-executor daemon holding 2000
// finished one-trial studies behind a router, both over loopback HTTP.
func BenchmarkRouterList2000(b *testing.B) {
	const n = 2000
	quiet := func(string, ...any) {}
	d, err := studyd.New(studyd.Config{Dir: b.TempDir(), Name: "d0", Workers: 2, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	for i := 0; i < n; i++ {
		m, err := d.Submit(benchSphereSpec(1))
		if err != nil {
			b.Fatal(err)
		}
		<-m.Done()
	}
	backend := httptest.NewServer(d.Handler())
	defer backend.Close()
	rt, err := shard.New(shard.Config{Backends: []shard.Backend{{Name: "d0", URL: backend.URL}}, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	list := func() []byte {
		resp, err := http.Get(front.URL + "/studies")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		return body
	}
	want := len(list())
	if got := bytes.Count(list(), []byte(`"status": "done"`)); got != n {
		b.Fatalf("%d done studies listed, want %d", got, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(list()); got != want {
			b.Fatalf("body of %d bytes, want %d", got, want)
		}
	}
}

// lengthWriter is a ResponseWriter that keeps only the status and the
// number of body bytes written.
type lengthWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *lengthWriter) Header() http.Header    { return w.h }
func (w *lengthWriter) WriteHeader(status int) { w.status = status }
func (w *lengthWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkServeFrontDone2000 is read_mix's GET /front of its static study
// without the HTTP hop: a 2000-trial sphere study run to done on a
// local-executor daemon, then its front read through the daemon's handler.
// The first read after done, the one that renders the body, is before the
// timer.
func BenchmarkServeFrontDone2000(b *testing.B) {
	d, err := studyd.New(studyd.Config{Dir: b.TempDir(), Workers: 2, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	defer d.Shutdown(context.Background())
	m, err := d.Submit(benchSphereSpec(2000))
	if err != nil {
		b.Fatal(err)
	}
	<-m.Done()
	if m.Status() != studyd.StatusDone {
		b.Fatalf("study %s: %s", m.ID, m.Status())
	}
	h := d.Handler()
	req := httptest.NewRequest(http.MethodGet, "/studies/"+m.ID+"/front", nil)
	w := &lengthWriter{h: http.Header{}}
	read := func() int {
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			b.Fatalf("GET /front: status %d, %d bytes", w.status, w.n)
		}
		return w.n
	}
	want := read()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := read(); got != want {
			b.Fatalf("body of %d bytes, want %d", got, want)
		}
	}
}
