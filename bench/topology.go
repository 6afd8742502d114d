package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"rldecide/internal/executor"
	"rldecide/internal/shard"
	"rldecide/internal/studyd"
)

// topology is one in-process deployment, built from public constructors
// only and wired over loopback httptest servers: a router in front of one
// or more daemons sharing a state directory, each daemon (in fleet mode)
// with its own workers that register and heartbeat like the real
// rldecide-worker does.
type topology struct {
	dir     string
	daemons []*studyd.Daemon
	servers []*httptest.Server // every listener: daemons, workers, router
	router  *shard.Router
	url     string // the router's base URL — the only address clients use

	stopBeats context.CancelFunc
	beats     sync.WaitGroup
}

type topologyShape struct {
	Daemons int
	// Exec is studyd.ExecFleet or studyd.ExecLocal; LocalWorkers is the
	// local executor's slot count, WorkersPerDaemon × Slots the fleet's.
	Exec                    string
	LocalWorkers            int
	WorkersPerDaemon, Slots int
}

func discard(string, ...any) {}

// newTopology builds and starts the deployment; on a traced run every
// handler, the dispatch transport and the workers' EvalFunc get the
// harness's wrappers.
func newTopology(r *run, shape topologyShape) (*topology, error) {
	dir, err := os.MkdirTemp("", "rlbench-state-*")
	if err != nil {
		return nil, err
	}
	beatCtx, stop := context.WithCancel(context.Background())
	t := &topology{dir: dir, stopBeats: stop}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	var backends []shard.Backend
	for i := 0; i < shape.Daemons; i++ {
		name := fmt.Sprintf("d%d", i)
		d, err := studyd.New(studyd.Config{
			Dir: dir, Name: name, Exec: shape.Exec, Workers: shape.LocalWorkers, Logf: discard,
			Fleet: executor.FleetOptions{Client: r.rec.dispatchClient()},
		})
		if err != nil {
			return nil, err
		}
		d.Start()
		t.daemons = append(t.daemons, d)
		ds := httptest.NewServer(r.rec.handler("studyd", d.Handler()))
		t.servers = append(t.servers, ds)
		backends = append(backends, shard.Backend{Name: name, URL: ds.URL})
		if shape.Exec != studyd.ExecFleet {
			continue
		}
		for w := 0; w < shape.WorkersPerDaemon; w++ {
			wname := fmt.Sprintf("%s-w%d", name, w)
			ws := &executor.Server{Name: wname, Eval: r.rec.eval(studyd.EvaluateRequest)}
			wsrv := httptest.NewServer(r.rec.handler("executor", ws.Handler()))
			t.servers = append(t.servers, wsrv)
			// Real heartbeats: a worker that only registered would expire
			// after the fleet's 15 s HeartbeatTTL and stall every lease.
			reg := &executor.Registrar{
				Daemon: ds.URL,
				Info:   executor.WorkerInfo{Name: wname, URL: wsrv.URL, Slots: shape.Slots},
			}
			t.beats.Add(1)
			go func() {
				defer t.beats.Done()
				_ = reg.Run(beatCtx) // returns nil on the ctx-driven stop; registration retries internally
			}()
		}
		deadline := now() + r.sz.OpDeadline
		for d.Fleet().Stats().Workers < shape.WorkersPerDaemon {
			if now() > deadline {
				return nil, fmt.Errorf("workers of %s did not register", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rt, err := shard.New(shard.Config{Backends: backends, Logf: discard})
	if err != nil {
		return nil, err
	}
	t.router = rt
	rs := httptest.NewServer(r.rec.handler("shard", rt.Handler()))
	t.servers = append(t.servers, rs)
	t.url = rs.URL
	ok = true
	return t, nil
}

// close stops heartbeats (deregistering the workers), drains the daemons,
// closes every listener and removes the state directory.
func (t *topology) close() {
	t.stopBeats()
	t.beats.Wait()
	for _, d := range t.daemons {
		shutdown(d)
	}
	if t.router != nil {
		_ = t.router.Shutdown(context.Background()) // always nil
	}
	for _, s := range t.servers {
		s.Close() //lint:ignore err-drop httptest.Server.Close returns nothing
	}
	_ = os.RemoveAll(t.dir) // best effort: the directory lives under the run's temp dir
}

// study finds the managed study behind an ID on whichever daemon owns it.
func (t *topology) study(id string) *studyd.ManagedStudy {
	for _, d := range t.daemons {
		if m, ok := d.Store().Get(id); ok {
			return m
		}
	}
	return nil
}

// submit posts spec through the router and returns the minted study ID.
func (t *topology) submit(r *run, spec studyd.Spec, parent int64) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	out, err := r.request("POST", t.url+"/studies", body, parent)
	if err != nil {
		return "", err
	}
	var sum studyd.Summary
	if err := json.Unmarshal(out, &sum); err != nil {
		return "", err
	}
	if tr := r.rec; tr != nil {
		if m := t.study(sum.ID); m != nil {
			tr.watchDone(sum.ID, m.Done())
		}
	}
	return sum.ID, nil
}

// awaitDone polls the study's summary through the router every PollEvery,
// and the moment ManagedStudy.Done() closes, until it reports done: a client
// with a push channel next to its polling. A client that only polled would
// add its own sleep to every latency — up to a poll period, a sixth of a
// fleet study and more than a whole read_mix one — and a median that sits
// near a poll instant would step by a period between runs. A study that
// fails, or is not done within limit, is an error (the hang guard: such a
// study counts as failed, not as a latency).
func (t *topology) awaitDone(r *run, id string, limit time.Duration, parent int64) (studyd.Summary, error) {
	var pushed <-chan struct{} // nil never fires
	if m := t.study(id); m != nil {
		pushed = m.Done()
	}
	deadline := now() + limit
	for {
		out, err := r.request("GET", t.url+"/studies/"+id, nil, parent)
		if err != nil {
			return studyd.Summary{}, err
		}
		var sum studyd.Summary
		if err := json.Unmarshal(out, &sum); err != nil {
			return sum, err
		}
		switch sum.Status {
		case studyd.StatusDone:
			return sum, nil
		case studyd.StatusFailed, studyd.StatusInterrupted:
			return sum, fmt.Errorf("study %s is %s: %s", id, sum.Status, sum.Error)
		}
		if now() > deadline {
			return sum, fmt.Errorf("study %s not done within %s (hang guard)", id, limit)
		}
		select {
		case <-pushed: // the next poll sees done or failed, so a closed channel is read once
		case <-time.After(r.sz.PollEvery):
		}
	}
}

// runStudy is one closed-loop client step: submit, wait for done, read
// the front once. The whole step is one attempted operation on top of its
// requests.
func (t *topology) runStudy(r *run, spec studyd.Spec, limit time.Duration) (studyRun, error) {
	sr := studyRun{spec: spec}
	sp := r.rec.begin("study", "")
	t0 := now()
	id, err := t.submit(r, spec, sp.ID)
	sr.id = id
	var sum studyd.Summary
	if err == nil {
		sum, err = t.awaitDone(r, id, limit, sp.ID)
	}
	if err == nil && sum.Finished != spec.Budget {
		err = fmt.Errorf("correctness: study %s finished %d of %d trials", id, sum.Finished, spec.Budget)
	}
	if err == nil {
		sr.frontAt = now()
		sr.front, err = r.request("GET", t.url+"/studies/"+id+"/front", nil, sp.ID)
	}
	sr.began, sr.ended = t0, now()
	sr.ms = ms(sr.ended - sr.began)
	sp.Trace = id
	r.rec.end(sp)
	r.op(err)
	return sr, err
}

// hangLimit is the hang guard's bound: 100× the median of the warm-up
// studies, and never under a second.
func hangLimit(warm []float64) time.Duration {
	return max(time.Second, time.Duration(100*median(warm)*float64(time.Millisecond)))
}
