// Command bench is rldecide's service-level benchmark: four workloads that
// drive the router -> daemon -> worker -> journal path (and the paper's own
// Table I campaign) through public constructors only, report end-to-end
// metrics with tracing off, and on a traced run break the time down per
// layer. See README.md in this directory.
//
//	go -C bench run .                       every workload, each in a fresh process
//	go -C bench run . -trace 1              the same, then each again traced
//	go -C bench run . -workload read_mix    one workload in this process
//	go -C bench run . -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res result) failRatio() float64 {
	return float64(res.Failed) / float64(max(res.Attempted, 1))
}

// run is the state of one workload run in this process.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	sz       sizes
	rec      *recorder // nil on an untraced run
	nproc    int
	// focus, when set, is the one study whose read spans the per-layer
	// read metrics are taken from (read_mix's static study).
	focus string

	client *http.Client

	attempted atomic.Int64
	failed    atomic.Int64

	mu sync.Mutex
	// guarded-by: mu
	failures []string // first few failure descriptions, for the operator
	// guarded-by: mu
	metrics map[string]metric
	// guarded-by: mu
	local map[string]metric // workload-local end-to-end metrics (not in BENCHMARK.json)
	// guarded-by: mu
	setups []float64
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

// check is op for a correctness assertion.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("correctness: "+format, args...))
}

func (r *run) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *run) setLocal(name string, v float64, unit string) {
	r.mu.Lock()
	r.local[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// setup runs build — one full set-up of the workload — SetupRepeats times,
// and on up to SetupMax times while they have taken less than SetupBudget
// together (a set-up of half a second needs more repeats than one of four
// seconds), tearing every instance but the last down again. setup_s is the
// median of the quiet fifth of them; the run continues on the last.
func setup[T any](r *run, build func() (T, error), teardown func(T)) (T, error) {
	var last T
	var spent time.Duration
	for i := 1; ; i++ {
		t0 := now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		d := now() - t0
		spent += d
		r.mu.Lock()
		r.setups = append(r.setups, d.Seconds())
		r.mu.Unlock()
		last = v
		if i >= r.sz.SetupRepeats && (i >= r.sz.SetupMax || spent >= r.sz.SetupBudget) {
			break
		}
		teardown(v)
		runtime.GC() // the discarded instance must not weigh on the next one's timing
	}
	// The spans a traced run reports are those of the timed phase.
	r.rec.reset()
	return last, nil
}

// request issues one client operation against the topology with the
// client's deadline and returns the body of a 2xx answer; anything else is
// an error. The operation is counted; parent names the client span the
// request belongs to on a traced run.
func (r *run) request(method, url string, body []byte, parent int64) (out []byte, err error) {
	defer func() { r.op(err) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if out, err = io.ReadAll(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

var workloads = map[string]func(*run) error{
	"fleet_sphere":    fleetSphere,
	"campaign_tablei": campaignTableI,
	"read_mix":        readMix,
	"resume_replay":   resumeReplay,
}

// workloadOrder is the order the all-workloads command runs them in.
var workloadOrder = []string{"fleet_sphere", "campaign_tablei", "read_mix", "resume_replay"}

// report is everything one workload run produces: the object of the last
// output line, the workload-local end-to-end metrics (on a traced run the
// traced end-to-end numbers, marked), and the first few failures.
type report struct {
	Result   result            `json:"result"`
	Local    map[string]metric `json:"local,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

// runWorkload executes one workload in this process. On a traced run the
// spans go to <outDir>/<name>.spans.jsonl.
func runWorkload(name string, seed uint64, seconds time.Duration, trace bool, sz sizes, outDir string) (report, error) {
	fn, ok := workloads[name]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadOrder, ", "))
	}
	return runFunc(name, fn, seed, seconds, trace, sz, outDir)
}

func runFunc(name string, fn func(*run) error, seed uint64, seconds time.Duration, trace bool, sz sizes, outDir string) (report, error) {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	// Closed-loop clients poll one router host; keep their connections.
	transport.MaxIdleConnsPerHost = 32
	r := &run{
		workload: name, seed: seed, seconds: seconds, sz: sz,
		nproc:   runtime.GOMAXPROCS(0),
		client:  &http.Client{Transport: transport, Timeout: sz.OpDeadline},
		metrics: map[string]metric{}, local: map[string]metric{},
	}
	if trace {
		r.rec = newRecorder()
	}
	err := fn(r)
	transport.CloseIdleConnections()
	if err != nil {
		return report{}, err
	}
	if trace {
		spans := r.rec.snapshot()
		linkFanout(spans)
		r.layerMetrics(spans)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return report{}, err
		}
		if err := writeSpans(filepath.Join(outDir, name+".spans.jsonl"), spans); err != nil {
			return report{}, err
		}
		// A traced run reports the per-layer set only; every name of the
		// set is present, zero where the workload never enters the layer.
		for _, def := range perLayer {
			if _, ok := r.metrics[def.Name]; !ok {
				r.metrics[def.Name] = metric{Unit: def.Unit}
			}
		}
		// The end-to-end numbers of a traced run carry the wrappers' cost;
		// they are kept, marked, beside the untraced ones.
		for name, m := range r.metrics {
			if _, ok := perLayerUnit[name]; !ok {
				r.local["traced_"+name] = m
				delete(r.metrics, name)
			}
		}
		for name := range bounds {
			if m, ok := r.local[name]; ok {
				r.local["traced_"+name] = m
				delete(r.local, name)
			}
		}
	} else {
		r.set("setup_s", median(quietTimes(r.setups)), "s")
		r.setLocal("peak_rss_mb", peakRSSMB(), "MB")
	}
	res := result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   r.metrics,
	}
	return report{Result: res, Local: r.local, Failures: r.failures}, nil
}

// printMetrics writes one "workload name value unit" row per metric.
func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process (default: all, each in a fresh child process)")
		seed     = flag.Uint64("seed", 1, "derives every generated spec seed")
		seconds  = flag.Int("seconds", defaultSeconds, "length of each workload's timed phase")
		trace    = flag.Int("trace", 0, "1: record harness spans and report the per-layer metrics instead of the end-to-end ones")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and <workload>.spans.jsonl")
		repPath  = flag.String("report", "", "also write this run's report (JSON) to the file; used by the all-workloads command")
		runs     = flag.Int("runs", 1, "all-workloads command: fresh-process runs per workload; results.json holds the medians")
		procs    = flag.Int("procs", defaultProcs, "cores the run gives itself (GOMAXPROCS); client counts and executor slots follow it")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *runs < 1 || *procs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds, -runs and -procs must be at least 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(*procs)
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *runs, *trace != 0, *outDir))
	}
	rep, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace != 0, fullSizes(), *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printMetrics(os.Stdout, *workload, rep.Local)
	printMetrics(os.Stdout, *workload, rep.Result.Metrics)
	fmt.Printf("%-16s %-36s %14.6g %s\n", *workload, "fail_ratio", rep.Result.failRatio(), "ratio")
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	if *repPath != "" {
		raw, err := json.Marshal(rep)
		if err == nil {
			err = os.WriteFile(*repPath, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// runAll runs every workload in a fresh child process (repeating a
// workload inside one process drifts: heaps and directories grow), runs
// times each, then once more traced when asked; prints every metric and
// writes results.json holding, per metric, the median over the runs.
func runAll(seed uint64, seconds, runs int, trace bool, outDir string) int {
	if err := runAllErr(seed, seconds, runs, trace, outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func runAllErr(seed uint64, seconds, runs int, trace bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	child := func(name string, traced int) (report, error) {
		path := filepath.Join(outDir, fmt.Sprintf(".%s.report.json", name))
		defer os.Remove(path)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", outDir, "-report", path)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return report{}, fmt.Errorf("workload %s: %w", name, err)
		}
		var rep report
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		return rep, err
	}
	out := resultsFile{Env: currentEnv(seed, seconds, runs), Workloads: map[string]workloadResults{}}
	correct := true
	for _, name := range workloadOrder {
		wr := workloadResults{EndToEnd: map[string]metric{}}
		samples := map[string][]float64{}
		for i := 0; i < runs; i++ {
			rep, err := child(name, 0)
			if err != nil {
				return err
			}
			correct = correct && rep.Result.Correct
			wr.Attempted += rep.Result.Attempted
			wr.Failed += rep.Result.Failed
			for _, ms := range []map[string]metric{rep.Result.Metrics, rep.Local} {
				for n, m := range ms {
					samples[n] = append(samples[n], m.Value)
					wr.EndToEnd[n] = metric{Unit: m.Unit}
				}
			}
		}
		for n, m := range wr.EndToEnd {
			wr.EndToEnd[n] = metric{Value: median(samples[n]), Unit: m.Unit}
		}
		wr.EndToEnd["fail_ratio"] = metric{Value: float64(wr.Failed) / float64(max(wr.Attempted, 1)), Unit: "ratio"}
		if trace {
			rep, err := child(name, 1)
			if err != nil {
				return err
			}
			correct = correct && rep.Result.Correct
			wr.PerLayer = rep.Result.Metrics
			// The traced child measured the same throughput with the
			// wrappers on; the difference is what tracing costs.
			if u, t := wr.EndToEnd["trials_per_s"].Value, rep.Local["traced_trials_per_s"].Value; u > 0 && t > 0 {
				pct := (u - t) / u * 100
				wr.PerLayer["bench.trace_overhead_pct"] = metric{Value: pct, Unit: "%"}
				fmt.Printf("%-16s %-36s %14.6g %s\n", name, "bench.trace_overhead_pct", pct, "%")
			}
		}
		out.Workloads[name] = wr
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("at least one operation failed or one output was wrong")
	}
	return nil
}
