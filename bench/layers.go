package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// perLayer is the per_layer set of BENCHMARK.json: what a traced run
// reports, for every workload (zero where the workload never enters the
// layer). Layers are the module names under internal/; "bench" is the
// harness's own share. README.md says how each is measured and which
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"shard.submit_self_ms", "ms"}, {"shard.proxy_self_us", "us"},
	{"shard.metrics_merge_ms", "ms"}, {"shard.place_us", "us"},

	{"studyd.submit_ms", "ms"}, {"studyd.per_trial_self_us", "us"}, {"studyd.finish_ms", "ms"},
	{"studyd.front_call_ms", "ms"}, {"studyd.trials_call_ms", "ms"},
	{"studyd.front_http_self_ms", "ms"}, {"studyd.trials_http_self_ms", "ms"},
	{"studyd.open_ms", "ms"}, {"studyd.handler_busy_share", "ratio"},

	{"executor.dispatch_rtt_us_p50", "us"}, {"executor.dispatch_rtt_us_p95", "us"},
	{"executor.dispatch_self_us", "us"}, {"executor.worker_self_us", "us"},
	{"executor.eval_us", "us"}, {"executor.eval_rebuild_us", "us"},
	{"executor.first_dispatch_ms", "ms"},
	{"executor.req_bytes_per_trial", "B"}, {"executor.resp_bytes_per_trial", "B"},
	{"executor.dispatches", "count"}, {"executor.redispatches", "count"},
	{"executor.spec_full_sends", "count"}, {"executor.slot_busy_share", "ratio"},
	{"executor.objective_share", "ratio"}, {"executor.local_run_us", "us"},

	{"journal.append_us", "us"}, {"journal.bytes_per_trial", "B"},
	{"journal.read_records_per_s", "1/s"}, {"journal.repair_ms", "ms"}, {"journal.totrial_us", "us"},

	{"core.rank_ms_400", "ms"}, {"core.rank_ms_2000", "ms"},
	{"core.loop_us_per_trial", "us"}, {"core.resume_replay_us_per_trial", "us"},

	{"pareto.nds_ms_2000", "ms"}, {"pareto.front_us_2000", "us"},

	{"search.random_next_ns", "ns"}, {"search.tpe_next_us_h300", "us"},

	{"obs.publish_ns_sub0", "ns"}, {"obs.publish_ns_sub4", "ns"},
	{"obs.bus_dropped", "count"}, {"obs.metrics_write_ms", "ms"},

	{"experiments.ppo_config_s_p50", "s"}, {"experiments.sac_config_s_p50", "s"},

	{"distrib.train_s.rayx", "s"}, {"distrib.train_s.sbx", "s"}, {"distrib.train_s.tfax", "s"},

	{"rl.ppo_collect_ms", "ms"}, {"rl.ppo_update_ms", "ms"}, {"rl.sac_update_us", "us"},
	{"nn.fwdbwd_us", "us"},

	{"tensor.matmul_ns.32x7x64", "ns"}, {"tensor.matmul_ns.32x64x64", "ns"}, {"tensor.matmul_ns.32x64x3", "ns"},
	{"tensor.transb_ns.32x64x64", "ns"}, {"tensor.stolen_chunks", "count"},

	{"airdrop.step_ns.rk3", "ns"}, {"airdrop.step_ns.rk5", "ns"}, {"airdrop.step_ns.rk8", "ns"},
	{"ode.step_ns.rk8", "ns"}, {"gym.vec_step_us", "us"},

	{"bench.observe_ms", "ms"}, {"bench.spans", "count"},
}

// perLayerUnit indexes perLayer by name.
var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// layer sets a per-layer metric, taking the unit from perLayer.
func (r *run) layer(name string, v float64) {
	unit, ok := perLayerUnit[name]
	if !ok {
		panic("bench: per-layer metric " + name + " is not declared in perLayer")
	}
	r.set(name, v, unit)
}

// layerMedian sets a per-layer metric to the median of v over div, when
// there is a sample at all.
func (r *run) layerMedian(name string, v []float64, div float64) {
	if len(v) > 0 {
		r.layer(name, median(v)/div)
	}
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
	nsPerS  = 1e9
)

// durs returns the durations (ns) of the spans for which keep holds.
func durs(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func named(layer, name string) func(span) bool {
	return func(s span) bool { return s.Layer == layer && s.Name == name }
}

// layerMetrics derives the span-based per-layer metrics of the run. The
// probes have already set theirs.
func (r *run) layerMetrics(spans []span) {
	r.layer("bench.spans", float64(len(spans)))
	if len(spans) == 0 {
		return
	}
	self := selfTimes(spans)
	selfOf := func(keep func(span) bool) []float64 {
		var out []float64
		for _, s := range spans {
			if keep(s) {
				out = append(out, float64(self[s.ID]))
			}
		}
		return out
	}
	wallNs := float64(spans[len(spans)-1].End - spans[0].Start)

	// shard: what the router adds on top of the daemon it calls.
	r.layerMedian("shard.submit_self_ms", selfOf(named("shard", "POST /studies")), nsPerMs)
	r.layerMedian("shard.proxy_self_us", selfOf(func(s span) bool {
		return s.Layer == "shard" && strings.HasPrefix(s.Name, "GET /studies/{id}")
	}), nsPerUs)
	r.layerMedian("shard.metrics_merge_ms", selfOf(named("shard", "GET /metrics")), nsPerMs)

	// studyd: handler spans, and the share of the wall they keep busy.
	r.layerMedian("studyd.submit_ms", durs(spans, named("studyd", "POST /studies")), nsPerMs)
	if busy := durs(spans, func(s span) bool { return s.Layer == "studyd" && strings.Contains(s.Name, " /") }); len(busy) > 0 {
		r.layer("studyd.handler_busy_share", sum(busy)/wallNs)
	}
	r.layerMedian("studyd.open_ms", durs(spans, named("studyd", "open")), nsPerMs)
	r.mu.Lock()
	frontCall, trialsCall := r.metrics["studyd.front_call_ms"].Value, r.metrics["studyd.trials_call_ms"].Value
	r.mu.Unlock()
	focused := func(name string) func(span) bool {
		return func(s span) bool { return s.Layer == "studyd" && s.Name == name && s.Trace == r.focus }
	}
	// The handler span is of the timed phase and the call a probe after it:
	// where the difference is less than the two disagree by (a /front is 99 %
	// the call), it reads 0, not a negative time.
	if v := durs(spans, focused("GET /studies/{id}/front")); len(v) > 0 && frontCall > 0 {
		r.layer("studyd.front_http_self_ms", max(0, median(v)/nsPerMs-frontCall))
		r.setLocal("studyd_front_handler_ms", median(v)/nsPerMs, "ms")
	}
	if v := durs(spans, focused("GET /studies/{id}/trials")); len(v) > 0 && trialsCall > 0 {
		r.layer("studyd.trials_http_self_ms", max(0, median(v)/nsPerMs-trialsCall))
	}

	// experiments: per-configuration walls inside the campaigns.
	r.layerMedian("experiments.ppo_config_s_p50", durs(spans, named("experiments", "config-ppo")), nsPerS)
	r.layerMedian("experiments.sac_config_s_p50", durs(spans, named("experiments", "config-sac")), nsPerS)

	r.dispatchMetrics(spans, self, wallNs)
}

// studyBudget is the per-study decomposition of a fleet study, in ns.
type studyBudget struct {
	clientStart, clientEnd int64
	firstDispatch, lastEnd int64
	rttSum                 int64
	dispatches             int
	done                   int64
}

// dispatchMetrics derives the executor chain (dispatch -> worker /run ->
// eval) and the per-study budget from the spans of a fleet run.
func (r *run) dispatchMetrics(spans []span, self map[int64]int64, wallNs float64) {
	var rtt, dispSelf, workerSelf, eval, rebuild, reqB, respB []float64
	var evalSum, objectiveSum float64
	full, redispatch := 0, 0
	seen := map[string]bool{}
	studies := map[string]*studyBudget{}
	at := func(id string) *studyBudget {
		b := studies[id]
		if b == nil {
			b = &studyBudget{}
			studies[id] = b
		}
		return b
	}
	for _, s := range spans {
		switch {
		case s.Layer == "executor" && s.Name == "dispatch":
			rtt = append(rtt, float64(s.dur()))
			dispSelf = append(dispSelf, float64(self[s.ID]))
			reqB = append(reqB, float64(s.ReqBytes))
			respB = append(respB, float64(s.RespBytes))
			if s.FullSpec {
				full++
			}
			key := fmt.Sprintf("%s/%d", s.Trace, s.Trial)
			if seen[key] || s.Status != 200 {
				redispatch++
			}
			seen[key] = true
			b := at(s.Trace)
			if b.dispatches == 0 || s.Start < b.firstDispatch {
				b.firstDispatch = s.Start
			}
			b.lastEnd = max(b.lastEnd, s.End)
			b.rttSum += s.dur()
			b.dispatches++
		case s.Layer == "executor" && s.Name == "POST /run":
			workerSelf = append(workerSelf, float64(self[s.ID]))
		case s.Layer == "executor" && s.Name == "eval":
			d := float64(s.dur())
			eval = append(eval, d)
			rebuild = append(rebuild, d-s.WallMs*nsPerMs)
			evalSum += d
			objectiveSum += s.WallMs * nsPerMs
		case s.Layer == "bench" && s.Name == "study":
			b := at(s.Trace)
			b.clientStart, b.clientEnd = s.Start, s.End
		case s.Layer == "studyd" && s.Name == "done":
			at(s.Trace).done = s.Start
		}
	}
	if len(rtt) == 0 {
		return
	}
	r.layer("executor.dispatch_rtt_us_p50", quantile(rtt, 0.50)/nsPerUs)
	r.layer("executor.dispatch_rtt_us_p95", quantile(rtt, 0.95)/nsPerUs)
	r.layer("executor.dispatch_self_us", median(dispSelf)/nsPerUs)
	r.layer("executor.worker_self_us", median(workerSelf)/nsPerUs)
	r.layer("executor.eval_us", median(eval)/nsPerUs)
	r.layer("executor.eval_rebuild_us", median(rebuild)/nsPerUs)
	r.layer("executor.req_bytes_per_trial", mean(reqB))
	r.layer("executor.resp_bytes_per_trial", mean(respB))
	r.layer("executor.dispatches", float64(len(rtt)))
	r.layer("executor.redispatches", float64(redispatch))
	r.layer("executor.spec_full_sends", float64(full))
	slots := 4.0 // 2 daemons × 1 worker × 2 slots
	r.layer("executor.slot_busy_share", evalSum/(slots*wallNs))
	r.layer("executor.objective_share", objectiveSum/wallNs)

	// The per-study budget: first dispatch + dispatch phase + finish +
	// observe = what the client measured. Only studies of the timed phase
	// and warm-up that have every part count.
	par := float64(r.sz.FleetParallelism)
	var first, perTrial, finish, observe, total, meanRTT []float64
	for _, id := range sortedKeys(studies) {
		b := studies[id]
		if b.dispatches == 0 || b.clientEnd == 0 || b.done == 0 {
			continue
		}
		first = append(first, float64(b.firstDispatch-b.clientStart))
		runWall := float64(b.lastEnd - b.firstDispatch)
		perTrial = append(perTrial, (par*runWall-float64(b.rttSum))/float64(b.dispatches))
		meanRTT = append(meanRTT, float64(b.rttSum)/float64(b.dispatches))
		finish = append(finish, float64(b.done-b.lastEnd))
		observe = append(observe, float64(b.clientEnd-b.done))
		total = append(total, float64(b.clientEnd-b.clientStart))
	}
	if len(total) == 0 {
		return
	}
	r.layer("executor.first_dispatch_ms", median(first)/nsPerMs)
	r.layer("studyd.per_trial_self_us", median(perTrial)/nsPerUs)
	r.layer("studyd.finish_ms", median(finish)/nsPerMs)
	r.layer("bench.observe_ms", median(observe)/nsPerMs)

	phase := float64(r.sz.FleetBudget) / par * (median(perTrial) + median(meanRTT))
	parts := median(first) + phase + median(finish) + median(observe)
	fmt.Printf("%s budget per study: first_dispatch %.2f ms + dispatch phase %.2f ms (%d/%d x (%.1f us self + %.1f us rtt)) + finish %.2f ms + observe %.2f ms = %.2f ms; traced study_done_ms_p50 %.2f ms (%.1f%%)\n",
		r.workload, median(first)/nsPerMs, phase/nsPerMs, r.sz.FleetBudget, r.sz.FleetParallelism,
		median(perTrial)/nsPerUs, median(meanRTT)/nsPerUs, median(finish)/nsPerMs, median(observe)/nsPerMs,
		parts/nsPerMs, median(total)/nsPerMs, parts/median(total)*100)
	r.setLocal("budget_sum_ms", parts/nsPerMs, "ms")
	r.setLocal("budget_study_ms_p50", median(total)/nsPerMs, "ms")
}
