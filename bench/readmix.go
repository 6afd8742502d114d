package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rldecide/internal/journal"
	"rldecide/internal/studyd"
)

// staticStudy is read_mix's set-up product: a finished study nobody writes
// to any more, and the two bodies every later read of it must equal.
type staticStudy struct {
	topo   *topology
	id     string
	front  []byte
	trials []byte
	warm   []float64
}

// readMix: router -> 1 local-executor daemon. Each closed-loop client takes
// turns at the two sides of the same daemon: one round of the read mix on a
// static finished study, then WritesPerRound studies written (submitted, run
// to done, the front read). With one client nothing overlaps, so a side's
// numbers are that side's own cost on the shared store; with more (-procs)
// one client's reads run beside another's writes.
//
// A reader and a writer that run side by side on one P were tried first and
// measure the Go scheduler: a /front is 65 ms of ranking, the writer's
// goroutines each wait out a 10 ms pre-emption slice of it per hop, and the
// share of the P each side ends up with moves the writer's throughput by 14 %
// between runs of one binary (README.md, "Turns").
func readMix(r *run) error {
	shape := topologyShape{Daemons: 1, Exec: studyd.ExecLocal, LocalWorkers: r.nproc}
	st, err := setup(r, func() (*staticStudy, error) { return buildStatic(r, shape) },
		func(s *staticStudy) { s.topo.close() })
	if err != nil {
		return err
	}
	topo := st.topo
	defer topo.close()
	r.focus = st.id
	base := topo.url + "/studies/" + st.id

	ph := newPhase()
	get := func(name, url string, want []byte) {
		sp := r.rec.begin(name, st.id)
		t0 := now()
		body, err := r.request("GET", url, nil, sp.ID)
		if err == nil {
			ph.record(name, t0, now(), "reads", 1)
		}
		r.rec.end(sp)
		if err == nil && want != nil {
			r.check(bytes.Equal(body, want), "%s of the static study differs from the set-up reference", name)
		}
	}
	round := func(k int) {
		if k%r.sz.WritesPerRound != 0 {
			return
		}
		t0 := now()
		get("read-front", base+"/front", st.front)
		get("read-trials", base+"/trials", st.trials)
		for k := 0; k < 4; k++ {
			get("read-summary", base, nil)
		}
		get("read-list", topo.url+"/studies", nil)
		get("read-metrics", topo.url+"/metrics", nil)
		ph.record("round", t0, now(), "", 0)
	}
	written := closedLoop(r, topo, ph, clients(), ph.start+r.seconds, hangLimit(st.warm), r.sz.WriterBudget, r.sz.FleetParallelism, round)
	if len(written) == 0 {
		return fmt.Errorf("read_mix: no study written in %s", r.seconds)
	}
	// A window is quiet when both sides got much done: the trials written
	// and the requests read, each against its own mean.
	ws := quiet(ph.windows(r.seconds, r.sz.Window), "trials", "reads")
	r.set("trials_per_s", rateOf(ws, "trials"), "1/s")
	// "Done" on this workload is one whole round of the read mix; a written
	// study's own latency is write_ms_p50.
	r.set("study_done_ms_p50", median(latOf(ws, "round")), "ms")
	r.set("front_ms_p50", median(latOf(ws, "read-front")), "ms")
	r.setLocal("study_done_ms_p95", quantile(ph.all("round"), 0.95), "ms")
	r.setLocal("front_ms_p90", quantile(ph.all("read-front"), 0.90), "ms")
	r.setLocal("trials_ms_p50", median(latOf(ws, "read-trials")), "ms")
	r.setLocal("trials_ms_p90", quantile(ph.all("read-trials"), 0.90), "ms")
	r.setLocal("reads_per_s", rateOf(ws, "reads"), "1/s")
	r.setLocal("write_ms_p50", median(latOf(ws, "study")), "ms")

	// The writer's studies are checked like the fleet's, none re-run: the
	// static study's bodies already pin the read side.
	if err := verifyStudies(r, topo, written, 0); err != nil {
		return err
	}
	if r.rec != nil {
		r.probeReads(topo, st)
	}
	return nil
}

// buildStatic is one read_mix set-up: topology, warm-up, the static study
// run to done through the router, and its two reference bodies checked
// against direct calls.
func buildStatic(r *run, shape topologyShape) (*staticStudy, error) {
	topo, err := newTopology(r, shape)
	if err != nil {
		return nil, err
	}
	st, err := func() (*staticStudy, error) {
		warm, err := warmUp(r, topo, r.sz.WriterBudget, r.sz.FleetParallelism)
		if err != nil {
			return nil, err
		}
		spec := sphereSpec(r.seed, 1<<52, "static", r.sz.StaticTrials, r.nproc)
		sr, err := topo.runStudy(r, spec, r.sz.OpDeadline)
		if err != nil {
			return nil, err
		}
		m := topo.study(sr.id)
		if m == nil {
			return nil, fmt.Errorf("static study %s is on no daemon", sr.id)
		}
		same, err := sameFront(sr.front, m)
		if err != nil {
			return nil, err
		}
		r.check(same, "static study: served front differs from ManagedStudy.Front()")
		trials, err := r.request("GET", topo.url+"/studies/"+sr.id+"/trials", nil, 0)
		if err != nil {
			return nil, err
		}
		var got struct {
			Trials []journal.Record `json:"trials"`
		}
		if err := json.Unmarshal(trials, &got); err != nil {
			return nil, err
		}
		ok := len(got.Trials) == r.sz.StaticTrials
		for i := 0; ok && i < len(got.Trials); i++ {
			ok = got.Trials[i].ID == i+1
		}
		r.check(ok, "static study: /trials is not %d records in ID order", r.sz.StaticTrials)
		return &staticStudy{topo: topo, id: sr.id, front: sr.front, trials: trials, warm: warm}, nil
	}()
	if err != nil {
		topo.close()
		return nil, err
	}
	return st, nil
}
