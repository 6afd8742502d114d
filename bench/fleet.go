package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"rldecide/internal/journal"
	"rldecide/internal/studyd"
)

// studyRun is one completed closed-loop step.
type studyRun struct {
	id    string
	spec  studyd.Spec
	front []byte
	ms    float64 // submit sent -> done observed + front read
	// now() readings: submit sent, front read begun, front read.
	began, frontAt, ended time.Duration
}

// closedLoop runs n clients against topo until the deadline: each submits
// its next generated study the moment the previous one is done and its
// front read, after whatever else of its own its k-th step begins with
// (before; read_mix's read rounds). Clients finish the step they are on when
// time is up. Every completed study goes to ph, its trials as work.
func closedLoop(r *run, topo *topology, ph *phase, n int, deadline, limit time.Duration, budget, parallelism int, before func(k int)) []studyRun {
	per := make([][]studyRun, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; now() < deadline; k++ {
				if before != nil {
					before(k)
				}
				spec := sphereSpec(r.seed, c<<32|k, fmt.Sprintf("c%d-%d", c, k), budget, parallelism)
				sr, err := topo.runStudy(r, spec, limit)
				if err == nil {
					ph.record("study", sr.began, sr.ended, "trials", float64(budget))
					ph.record("study-front", sr.frontAt, sr.ended, "", 0)
					per[c] = append(per[c], sr)
				}
			}
		}()
	}
	wg.Wait()
	var all []studyRun
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// warmUp runs the set-up's warm-up studies through the router, one after
// another, and returns their latencies (the hang guard's yardstick).
func warmUp(r *run, topo *topology, budget, parallelism int) ([]float64, error) {
	var warm []float64
	for i := 0; i < r.sz.WarmStudies; i++ {
		sr, err := topo.runStudy(r, sphereSpec(r.seed, 1<<48|i, fmt.Sprintf("warm-%d", i), budget, parallelism), r.sz.OpDeadline)
		if err != nil {
			return nil, err
		}
		warm = append(warm, sr.ms)
	}
	return warm, nil
}

// canonical renders a study's trials as journal lines in ID order with the
// informational fields (worker, wall_ms) cleared — the byte-level form the
// replay contract makes equal wherever and however often the spec runs.
func canonical(m *studyd.ManagedStudy) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, tr := range m.Trials() {
		rec := journal.FromTrial(tr)
		rec.Worker, rec.WallMs = "", 0
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// reference is a single local daemon on its own directory that re-runs
// specs for the correctness checks.
type reference struct {
	d   *studyd.Daemon
	dir string
}

func newReference(r *run) (*reference, error) {
	dir, err := os.MkdirTemp("", "rlbench-ref-*")
	if err != nil {
		return nil, err
	}
	d, err := studyd.New(localConfig(r, dir))
	if err != nil {
		_ = os.RemoveAll(dir) // best effort
		return nil, err
	}
	d.Start()
	return &reference{d: d, dir: dir}, nil
}

func (ref *reference) run(spec studyd.Spec, limit time.Duration) (*studyd.ManagedStudy, error) {
	m, err := ref.d.Submit(spec)
	if err != nil {
		return nil, err
	}
	select {
	case <-m.Done():
	case <-time.After(limit):
		return nil, fmt.Errorf("reference run of %q not done within %s", spec.Name, limit)
	}
	if st := m.Status(); st != studyd.StatusDone {
		return nil, fmt.Errorf("reference run of %q is %s", spec.Name, st)
	}
	return m, nil
}

func (ref *reference) close() {
	shutdown(ref.d)
	_ = os.RemoveAll(ref.dir) // best effort, under the run's temp dir
}

// sameFront reports whether a served /front body equals the front of m.
func sameFront(body []byte, m *studyd.ManagedStudy) (bool, error) {
	var got studyd.Front
	if err := json.Unmarshal(body, &got); err != nil {
		return false, err
	}
	want, err := m.Front()
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(got, want), nil
}

// verifyStudies checks every completed study for a full, duplicate-free
// trial set, and every every-th one against the same spec re-run on a
// local reference daemon: equal canonical journal, equal front.
func verifyStudies(r *run, topo *topology, done []studyRun, every int) error {
	ref, err := newReference(r)
	if err != nil {
		return err
	}
	defer ref.close()
	for i, sr := range done {
		m := topo.study(sr.id)
		if m == nil {
			r.check(false, "study %s is on no daemon", sr.id)
			continue
		}
		trials := m.Trials()
		ok := len(trials) == sr.spec.Budget
		for j := 0; ok && j < len(trials); j++ {
			ok = trials[j].ID == j+1
		}
		r.check(ok, "study %s: trial IDs are not exactly 1..%d", sr.id, sr.spec.Budget)
		if every <= 0 || i%every != 0 {
			continue
		}
		want, err := ref.run(sr.spec, r.sz.OpDeadline)
		if err != nil {
			r.op(err)
			continue
		}
		got, err := canonical(m)
		if err != nil {
			return err
		}
		exp, err := canonical(want)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(got, exp), "study %s: canonical journal differs from the local reference run", sr.id)
		same, err := sameFront(sr.front, want)
		r.check(err == nil && same, "study %s: served front differs from the local reference run", sr.id)
	}
	return nil
}

// fleetSphere: router -> 2 daemons in fleet mode on one shared state
// directory -> 1 worker each × 2 slots. The objective costs microseconds,
// so the control plane is the cost.
func fleetSphere(r *run) error {
	shape := topologyShape{Daemons: 2, Exec: studyd.ExecFleet, WorkersPerDaemon: 1, Slots: 2}
	var warm []float64
	topo, err := setup(r, func() (*topology, error) {
		t, err := newTopology(r, shape)
		if err != nil {
			return nil, err
		}
		if warm, err = warmUp(r, t, r.sz.FleetBudget, r.sz.FleetParallelism); err != nil {
			t.close()
			return nil, err
		}
		return t, nil
	}, (*topology).close)
	if err != nil {
		return err
	}
	defer topo.close()

	ph := newPhase()
	done := closedLoop(r, topo, ph, clients(), ph.start+r.seconds, hangLimit(warm), r.sz.FleetBudget, r.sz.FleetParallelism, nil)
	if len(done) == 0 {
		return fmt.Errorf("fleet_sphere: no study completed in %s", r.seconds)
	}
	ws := quiet(ph.windows(r.seconds, r.sz.Window), "trials")
	r.set("trials_per_s", rateOf(ws, "trials"), "1/s")
	r.set("study_done_ms_p50", median(latOf(ws, "study")), "ms")
	r.set("front_ms_p50", median(latOf(ws, "study-front")), "ms")
	r.setLocal("study_done_ms_p95", quantile(ph.all("study"), 0.95), "ms")
	r.setLocal("front_ms_p90", quantile(ph.all("study-front"), 0.90), "ms")

	if err := verifyStudies(r, topo, done, r.sz.VerifyEvery); err != nil {
		return err
	}
	if r.rec != nil {
		r.probeFleet(topo, done[0].id)
	}
	return nil
}
