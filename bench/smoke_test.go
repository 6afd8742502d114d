package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"rldecide/internal/studyd"
)

// toySizes keeps topology, study shape and mix and shrinks every count, so
// all four workloads, untraced and traced, fit in a few seconds.
func toySizes() sizes {
	sz := fullSizes()
	sz.SetupRepeats, sz.SetupMax, sz.WarmStudies = 1, 1, 1
	sz.FleetBudget, sz.VerifyEvery = 40, 2
	sz.StaticTrials, sz.WriterBudget = 200, 30
	sz.ResumeStudies, sz.ResumeBudget, sz.ResumeKeep, sz.TornEvery, sz.FrontSample = 3, 220, 200, 2, 1
	sz.Scale = warmScale()
	sz.Scale.TotalSteps, sz.Scale.SACStartSteps = 64, 32
	sz.WarmScale = sz.Scale
	sz.CampaignEvery = time.Hour
	sz.FrontBatch, sz.FrontSamples = 3, 3
	sz.ProbeBudget = time.Millisecond
	return sz
}

const toySeconds = 150 * time.Millisecond

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsEmitDeclaredMetrics runs every workload of BENCHMARK.json at
// toy size, untraced and traced, and checks that the run is correct and
// reports exactly the declared metric set (a JSON object cannot hold a name
// twice, so "exactly the set" is "each exactly once") with the declared
// units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for _, e := range b.EndToEnd {
		bd, ok := bounds[e.Name]
		if !ok || bd.share != e.Bound || bd.higherIsBetter != (e.Better == "higher") {
			t.Errorf("end-to-end metric %s: BENCHMARK.json (%s, %v) and -compare's bounds (%+v) disagree", e.Name, e.Better, e.Bound, bd)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w.Name, 1, toySeconds, traced, toySizes(), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.Name, traced, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, m := range rep.Result.Metrics {
				if !nameOK.MatchString(name) {
					t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", w.Name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: reports %s, which BENCHMARK.json does not declare", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, m.Value)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s traced=%v: does not report %s", w.Name, traced, name)
			}
		}
	}
}

// TestInjectedMismatchFails checks that the correctness checks fire: a
// study verified against a reference run of a different spec must count as
// failed operations.
func TestInjectedMismatchFails(t *testing.T) {
	// One honest study on a local topology, then verification told the
	// study ran another seed.
	rep, err := runFunc("inject_mismatch", func(r *run) error {
		topo, err := newTopology(r, topologyShape{Daemons: 1, Exec: studyd.ExecLocal, LocalWorkers: 2})
		if err != nil {
			return err
		}
		defer topo.close()
		sr, err := topo.runStudy(r, sphereSpec(r.seed, 0, "honest", r.sz.FleetBudget, 2), r.sz.OpDeadline)
		if err != nil {
			return err
		}
		if err := verifyStudies(r, topo, []studyRun{sr}, 1); err != nil || r.failed.Load() != 0 {
			return err
		}
		sr.spec.Seed++
		return verifyStudies(r, topo, []studyRun{sr}, 1)
	}, 1, toySeconds, false, toySizes(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Correct || rep.Result.Failed < 2 {
		t.Fatalf("verification against a different spec passed: %+v", rep.Result)
	}
}

// TestTrialSelfTimesSumToRTT checks the span arithmetic on a traced toy
// fleet run: for a trial, the self times of its dispatch span, the
// worker's /run span under it and the eval span under that add up to the
// dispatch round trip, and every dispatch has that chain.
func TestTrialSelfTimesSumToRTT(t *testing.T) {
	dir := t.TempDir()
	if _, err := runWorkload("fleet_sphere", 2, toySeconds, true, toySizes(), dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fleet_sphere.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	self := selfTimes(spans)
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	checked := 0
	for _, d := range spans {
		if d.Name != "dispatch" {
			continue
		}
		runs := children[d.ID]
		if len(runs) != 1 || runs[0].Name != "POST /run" {
			t.Fatalf("dispatch %d of %s/%d has children %+v, want one POST /run", d.ID, d.Trace, d.Trial, runs)
		}
		evals := children[runs[0].ID]
		if len(evals) != 1 || evals[0].Name != "eval" || evals[0].Trace != d.Trace || evals[0].Trial != d.Trial {
			t.Fatalf("POST /run %d has children %+v, want the eval of %s/%d", runs[0].ID, evals, d.Trace, d.Trial)
		}
		if got := self[d.ID] + self[runs[0].ID] + self[evals[0].ID]; got != d.dur() {
			t.Fatalf("trial %s/%d: self times sum to %d ns, dispatch RTT is %d ns", d.Trace, d.Trial, got, d.dur())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("the traced fleet run recorded no dispatch span")
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	mk := func(tps, fail float64) resultsFile {
		return resultsFile{Workloads: map[string]workloadResults{"fleet_sphere": {EndToEnd: map[string]metric{
			"trials_per_s": {Value: tps, Unit: "1/s"}, "fail_ratio": {Value: fail, Unit: "ratio"},
		}}}}
	}
	base := mk(1000, 0)
	for _, c := range []struct {
		name string
		b    resultsFile
		want int
	}{
		{"same", mk(1000, 0), 0},
		{"inside the bound", mk(1000*(1-bounds["trials_per_s"].share/2), 0), 0},
		{"outside the bound", mk(1000*(1-2*bounds["trials_per_s"].share), 0), 1},
		{"better", mk(5000, 0), 0},
		{"any failure", mk(1000, 0.001), 1},
		{"missing metric", resultsFile{Workloads: map[string]workloadResults{"fleet_sphere": {}}}, 1},
	} {
		if got := compareResults(io.Discard, base, c.b); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.name, got, c.want)
		}
	}
}
