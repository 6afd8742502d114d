package studyd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/executor"
	"rldecide/internal/journal"
	"rldecide/internal/mathx"
	"rldecide/internal/param"
)

// dropPrepared empties the prepared-spec cache, so a test starts from the
// state of a fresh process whatever ran before it (-count=2 included).
func dropPrepared() {
	objMu.Lock()
	defer objMu.Unlock()
	clear(preparedSpecs)
	preparedOrder = nil
}

func preparedCount() (entries, order int) {
	objMu.RLock()
	defer objMu.RUnlock()
	return len(preparedSpecs), len(preparedOrder)
}

func marshalSpec(t testing.TB, sp Spec) []byte {
	t.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// requestFor renders a into a dispatch of raw, hashed or not.
func requestFor(raw []byte, hashed bool, id int, a param.Assignment, seed uint64) executor.TrialRequest {
	req := executor.TrialRequest{StudyID: "s", TrialID: id, Spec: raw, Params: map[string]string{}, Seed: seed}
	if hashed {
		req.SpecHash = executor.SpecHashOf(raw)
	}
	for _, b := range a {
		req.Params[b.Name] = b.Value.String()
	}
	return req
}

// evalBothWays evaluates one trial without a hash (prepared for this
// request alone, as every request was before the cache) and with one, and
// requires the same answer; WallMs is a measurement and is cleared.
func evalBothWays(t *testing.T, raw []byte, id int, a param.Assignment, seed uint64) executor.TrialResult {
	t.Helper()
	plain, perr := EvaluateRequest(context.Background(), requestFor(raw, false, id, a, seed))
	cached, cerr := EvaluateRequest(context.Background(), requestFor(raw, true, id, a, seed))
	plain.WallMs, cached.WallMs = 0, 0
	if fmt.Sprint(perr) != fmt.Sprint(cerr) || !reflect.DeepEqual(plain, cached) {
		t.Fatalf("trial %d %v seed %d:\n without hash %+v, %v\n with hash    %+v, %v", id, a, seed, plain, perr, cached, cerr)
	}
	return cached
}

// TestEvaluateRequestPreparedMatchesUnprepared is the differential test of
// the prepared cache: random trials of sphere and rastrigin specs over
// every parameter kind, with and without noise, a spec whose objective
// fails and panics deterministically, and three short steer-ppo trainings.
func TestEvaluateRequestPreparedMatchesUnprepared(t *testing.T) {
	RegisterObjective("eval-flaky", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			switch x := a.Value("x").Float(); {
			case x < -1:
				return fmt.Errorf("x = %v is <too low> & \"quoted\"", x)
			case x > 1:
				panic("x too high")
			default:
				rec.Report(metrics[0].Name, x)
				return nil
			}
		}, nil
	})
	mixed := baseSpec("rastrigin")
	mixed.Noise = 0.25
	mixed.Params = append(mixed.Params,
		ParamSpec{Name: "c", Type: "categorical", Options: []string{"a", "b"}},
		ParamSpec{Name: "i", Type: "intset", Ints: []int{1, 2, 30}},
		ParamSpec{Name: "r", Type: "intrange", Lo: -3, Hi: 1 << 40},
		ParamSpec{Name: "l", Type: "floatrange", Lo: 1e-6, Hi: 1, Log: true},
	)
	single := baseSpec("sphere")
	single.Noise, single.Metrics = 1e-3, single.Metrics[:1]
	flaky := baseSpec("eval-flaky")
	flaky.Metrics = flaky.Metrics[:1]
	specs := []Spec{baseSpec("sphere"), mixed, single, flaky}

	rng := mathx.NewRand(18)
	failed, panicked := 0, 0
	for i := 0; i < 200; i++ {
		sp := specs[i%len(specs)]
		space, err := sp.Space()
		if err != nil {
			t.Fatal(err)
		}
		res := evalBothWays(t, marshalSpec(t, sp), i+1, space.Sample(rng), rng.Uint64())
		switch {
		case res.Error == "":
			if len(res.Values) != len(sp.Metrics) {
				t.Fatalf("trial %d of %s reported %v", i+1, sp.Objective, res.Values)
			}
		case res.Error == "studyd: objective panicked: x too high":
			panicked++
		default:
			failed++
		}
	}
	if failed == 0 || panicked == 0 {
		t.Fatalf("the flaky objective failed %d and panicked %d times; both paths must be compared", failed, panicked)
	}

	ppo := Spec{
		Name: "ppo", Objective: "steer-ppo", Budget: 3, Seed: 2,
		Params: []ParamSpec{
			{Name: "lr", Type: "floatrange", Lo: 1e-4, Hi: 1e-2, Log: true},
			{Name: "hidden", Type: "intset", Ints: []int{4, 8}},
			{Name: "steps", Type: "intset", Ints: []int{128, 256}},
		},
		Metrics: []MetricSpec{{Name: "return", Direction: "max"}, {Name: "compute", Direction: "min"}},
	}
	space, err := ppo.Space()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		evalBothWays(t, marshalSpec(t, ppo), i+1, space.Sample(rng), rng.Uint64())
	}
}

// TestRegisterObjectiveDropsPrepared: a prepared spec holds the objective
// its factory built, so registering the name again must reach specs that
// were already evaluated.
func TestRegisterObjectiveDropsPrepared(t *testing.T) {
	register := func(offset float64) {
		RegisterObjective("eval-rereg", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
			return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
				rec.Report(metrics[0].Name, a.Value("x").Float()+offset)
				return nil
			}, nil
		})
	}
	sp := baseSpec("eval-rereg")
	sp.Metrics = sp.Metrics[:1]
	raw := marshalSpec(t, sp)
	a := param.Assign(param.Bind("x", param.Float(0.5)), param.Bind("y", param.Float(0)))
	for _, offset := range []float64{1, 2} {
		register(offset)
		for i := 0; i < 2; i++ { // the second one is served from the cache
			res, err := EvaluateRequest(context.Background(), requestFor(raw, true, 1, a, 1))
			if err != nil || res.Values["f"] != 0.5+offset {
				t.Fatalf("offset %v, evaluation %d: %+v, %v", offset, i, res, err)
			}
		}
	}
}

// TestEvaluateRequestConcurrent hammers two specs from eight goroutines
// through one empty cache: the first insert is raced, every later trial
// reads the shared prepared form. Run it with -race.
func TestEvaluateRequestConcurrent(t *testing.T) {
	noisy := baseSpec("rastrigin")
	noisy.Noise = 0.5
	raws := [][]byte{marshalSpec(t, baseSpec("sphere")), marshalSpec(t, noisy)}
	a := param.Assign(param.Bind("x", param.Float(0.25)), param.Bind("y", param.Float(-1.5)))
	const seeds = 16
	var want [2][seeds]executor.TrialResult
	for s := range raws {
		for seed := range want[s] {
			res, err := EvaluateRequest(context.Background(), requestFor(raws[s], false, seed, a, uint64(seed)))
			if err != nil {
				t.Fatal(err)
			}
			res.WallMs = 0
			want[s][seed] = res
		}
	}
	dropPrepared()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s, seed := (g+i)%2, i%seeds
				res, err := EvaluateRequest(context.Background(), requestFor(raws[s], true, seed, a, uint64(seed)))
				res.WallMs = 0
				if err != nil || !reflect.DeepEqual(res, want[s][seed]) {
					t.Errorf("goroutine %d, spec %d seed %d: %+v, %v; want %+v", g, s, seed, res, err, want[s][seed])
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := preparedCount(); n != 2 {
		t.Fatalf("%d prepared specs after two specs were evaluated", n)
	}
}

// TestPreparedCacheBound: one spec more than the cache holds evicts the
// oldest, which then evaluates as it did (and is prepared again).
func TestPreparedCacheBound(t *testing.T) {
	dropPrepared()
	a := param.Assign(param.Bind("x", param.Float(1)), param.Bind("y", param.Float(-0.5)))
	var raws [][]byte
	var first executor.TrialResult
	for i := 0; i <= maxPreparedSpecs; i++ {
		sp := baseSpec("sphere")
		sp.Name, sp.Noise = fmt.Sprintf("bound-%d", i), float64(i+1)
		raws = append(raws, marshalSpec(t, sp))
		res := evalBothWays(t, raws[i], 1, a, 7)
		if i == 0 {
			first = res
		}
	}
	entries, order := preparedCount()
	if entries != maxPreparedSpecs || order != entries {
		t.Fatalf("%d specs left %d entries and %d order slots, want %d", len(raws), entries, order, maxPreparedSpecs)
	}
	objMu.RLock()
	_, kept := preparedSpecs[executor.SpecHashOf(raws[0])]
	objMu.RUnlock()
	if kept {
		t.Fatal("the oldest spec was not the one evicted")
	}
	if again := evalBothWays(t, raws[0], 1, a, 7); !reflect.DeepEqual(again, first) {
		t.Fatalf("evicted spec evaluates to %+v, was %+v", again, first)
	}
	if entries, _ := preparedCount(); entries != maxPreparedSpecs {
		t.Fatalf("%d entries after re-preparing the evicted spec", entries)
	}
}

// TestEvaluateRequestRejectsWrongHash: nothing is prepared under a hash
// the spec bytes do not have — the trial is refused as infrastructure (an
// error, not a journaled TrialResult.Error), and the spec the hash does
// belong to is unaffected.
func TestEvaluateRequestRejectsWrongHash(t *testing.T) {
	dropPrepared()
	sphere, rastrigin := marshalSpec(t, baseSpec("sphere")), marshalSpec(t, baseSpec("rastrigin"))
	a := param.Assign(param.Bind("x", param.Float(1)), param.Bind("y", param.Float(1)))
	forged := requestFor(rastrigin, false, 1, a, 1)
	forged.SpecHash = executor.SpecHashOf(sphere)
	if res, err := EvaluateRequest(context.Background(), forged); !errors.Is(err, executor.ErrSpecHashMismatch) {
		t.Fatalf("rastrigin bytes under sphere's hash: %+v, %v; want ErrSpecHashMismatch", res, err)
	}
	if n, _ := preparedCount(); n != 0 {
		t.Fatalf("%d prepared specs after a refused request", n)
	}
	res, err := EvaluateRequest(context.Background(), requestFor(sphere, true, 1, a, 1))
	if err != nil || res.Values["f"] != 2 {
		t.Fatalf("sphere under its own hash: %+v, %v", res, err)
	}
}

// TestWorkerServesFromPreparedCache drives a worker built the way
// cmd/rldecide-worker builds one: the prepared-spec cache is the only spec
// cache it has, and its misses are the 428s a dispatcher resends on.
func TestWorkerServesFromPreparedCache(t *testing.T) {
	var evals atomic.Int32
	register := func() {
		RegisterObjective("serve-cache", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
			return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
				evals.Add(1)
				rec.Report(metrics[0].Name, a.Value("x").Float()+float64(seed))
				return nil
			}, nil
		})
	}
	register()
	dropPrepared()
	ts := httptest.NewServer((&executor.Server{Name: "w", Eval: EvaluateRequest, Logf: testLogf(t)}).Handler())
	defer ts.Close()
	run := func(req executor.TrialRequest) (int, executor.TrialResult) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/run", req)
		defer resp.Body.Close()
		var res executor.TrialResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, res
	}
	hashOnly := func(req executor.TrialRequest) executor.TrialRequest {
		req.Spec = nil
		return req
	}

	sp := baseSpec("serve-cache")
	sp.Metrics = sp.Metrics[:1]
	raw := marshalSpec(t, sp)
	a := param.Assign(param.Bind("x", param.Float(0.5)), param.Bind("y", param.Float(0)))
	full := requestFor(raw, true, 1, a, 3)

	if status, _ := run(hashOnly(full)); status != http.StatusPreconditionRequired || evals.Load() != 0 {
		t.Fatalf("cold hash-only request: status %d after %d evaluations, want 428 and none", status, evals.Load())
	}
	if status, res := run(full); status != http.StatusOK || res.Values["f"] != 3.5 {
		t.Fatalf("full send: status %d %+v", status, res)
	}
	second := requestFor(raw, true, 2, a, 4)
	want, err := EvaluateRequest(context.Background(), requestFor(raw, false, 2, a, 4))
	if err != nil {
		t.Fatal(err)
	}
	if status, res := run(hashOnly(second)); status != http.StatusOK || !reflect.DeepEqual(res.Values, want.Values) {
		t.Fatalf("hash-only request: status %d %+v, want the values %v of a hashless evaluation", status, res, want.Values)
	}

	owner := baseSpec("sphere")
	owner.Name = "owner"
	ownerRaw := marshalSpec(t, owner)
	forged := requestFor(marshalSpec(t, baseSpec("rastrigin")), false, 1, a, 1)
	forged.SpecHash = executor.SpecHashOf(ownerRaw)
	before, _ := preparedCount()
	if status, _ := run(forged); status != http.StatusBadRequest {
		t.Fatalf("spec under another spec's hash: status %d, want 400", status)
	}
	if after, _ := preparedCount(); after != before {
		t.Fatalf("a refused pairing left %d prepared specs, was %d", after, before)
	}
	if status, _ := run(hashOnly(requestFor(ownerRaw, true, 1, a, 1))); status != http.StatusPreconditionRequired {
		t.Fatalf("the owner's hash-only request after the forged one: status %d, want 428", status)
	}

	register()
	if status, _ := run(hashOnly(second)); status != http.StatusPreconditionRequired {
		t.Fatalf("hash-only request after RegisterObjective: status %d, want 428", status)
	}
	if status, res := run(second); status != http.StatusOK || !reflect.DeepEqual(res.Values, want.Values) {
		t.Fatalf("full resend after RegisterObjective: status %d %+v", status, res)
	}
}

// TestEvaluateRequestAllocs pins the steady-state cost of a trial whose
// spec is prepared: it was 60 allocations when every trial decoded the
// spec and rebuilt space, metrics, objective and resolver.
func TestEvaluateRequestAllocs(t *testing.T) {
	raw := marshalSpec(t, baseSpec("sphere"))
	a := param.Assign(param.Bind("x", param.Float(0.5)), param.Bind("y", param.Float(-0.5)))
	req := requestFor(raw, true, 1, a, 9)
	eval := func() {
		if _, err := EvaluateRequest(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	if n := testing.AllocsPerRun(200, eval); n > 10 {
		t.Fatalf("EvaluateRequest on a prepared spec: %v allocs/op, want <= 10", n)
	}
}

// TestIntRangeSpecEvaluatesAndRecovers: the resolver used to enumerate an
// intrange — every integer, rendered into a map — per evaluated trial and
// per recovered journal (2 ms at [0, 8192], 20 s and gigabytes at
// [0, 2e7]). A study over [0, 2^40] must run, restart and read back inside
// a ceiling that enumeration cannot meet.
func TestIntRangeSpecEvaluatesAndRecovers(t *testing.T) {
	const ceiling = 10 * time.Second
	start := time.Now()
	dir := t.TempDir()
	sp := baseSpec("sphere")
	sp.Budget = 12
	sp.Params = append(sp.Params, ParamSpec{Name: "n", Type: "intrange", Lo: 0, Hi: 1 << 40})
	run := func() []core.Trial {
		d, err := New(Config{Dir: dir, Workers: 2, Logf: testLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		defer d.Shutdown(context.Background())
		studies := d.Store().List()
		if len(studies) == 0 {
			m, err := d.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			studies = append(studies, m)
		}
		waitStatus(t, studies[0], StatusDone)
		return studies[0].Trials()
	}
	ran := run()
	recovered := run()
	if len(ran) != sp.Budget || len(recovered) != sp.Budget {
		t.Fatalf("ran %d trials, recovered %d, want %d", len(ran), len(recovered), sp.Budget)
	}
	wide := false
	for i, tr := range ran {
		n := tr.Params.Value("n")
		if n.Kind() != param.KindInt || recovered[i].Params.Value("n") != n {
			t.Fatalf("trial %d: ran with n = %#v, recovered %#v", tr.ID, n, recovered[i].Params.Value("n"))
		}
		wide = wide || n.Int() > 1<<32
		if !reflect.DeepEqual(tr.Values, recovered[i].Values) {
			t.Fatalf("trial %d: values %v, recovered %v", tr.ID, tr.Values, recovered[i].Values)
		}
	}
	if !wide {
		t.Fatal("no trial drew n above 2^32: the range is not being used")
	}
	if took := time.Since(start); took > ceiling {
		t.Fatalf("took %s, ceiling %s", took, ceiling)
	}
}

// TestTrialsHTTPMatchesFromTrial: /trials is written by the journal's
// encoder, not by encoding/json over journal.FromTrial records — and must
// decode to exactly those records, an escaped error message and a failed
// trial without values included.
func TestTrialsHTTPMatchesFromTrial(t *testing.T) {
	RegisterObjective("trials-http", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			x := a.Value("x").Float()
			if x < 0 {
				return fmt.Errorf("x = %v: <b>\"no\"</b> & \\ \n\tnext line \u2028 é", x)
			}
			rec.Report(metrics[0].Name, x)
			rec.Report(metrics[1].Name, 1e-9*x)
			return nil
		}, nil
	})
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())

	sp := baseSpec("trials-http")
	sp.Budget, sp.Parallelism = 40, 2
	sp.Params = append(sp.Params, ParamSpec{Name: "c", Type: "categorical", Options: []string{"a<b", "c&d"}})
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	var empty struct {
		Trials []journal.Record `json:"trials"`
	}
	if code := getJSON(t, ts.URL+"/studies/"+m.ID+"/trials", &empty); code != http.StatusOK {
		t.Fatalf("trials of a study that may not have started: %d", code)
	}
	waitStatus(t, m, StatusDone)

	var got struct {
		Trials []journal.Record `json:"trials"`
	}
	if code := getJSON(t, ts.URL+"/studies/"+m.ID+"/trials", &got); code != http.StatusOK {
		t.Fatalf("trials: %d", code)
	}
	trials := m.Trials()
	if len(got.Trials) != len(trials) || len(trials) != sp.Budget {
		t.Fatalf("served %d records of %d trials, budget %d", len(got.Trials), len(trials), sp.Budget)
	}
	failed := 0
	for i, tr := range trials {
		want := journal.FromTrial(tr)
		if len(want.Values) == 0 {
			want.Values = nil // omitempty: an empty map is not served
		}
		if !reflect.DeepEqual(got.Trials[i], want) {
			t.Fatalf("record %d:\n served %+v\n want   %+v", i, got.Trials[i], want)
		}
		if want.Error != "" && want.Values == nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no failed trial among the served records")
	}
}

// TestTrialsHTTPUnencodableMetric: a NaN metric has no JSON spelling. The
// journal refuses the trial (journal_error); /trials says so instead of
// answering 200 with no body, which is what encoding/json's refusal after
// the status line came to — on every read of the done study, since an
// error is never kept as its body.
func TestTrialsHTTPUnencodableMetric(t *testing.T) {
	RegisterObjective("trials-nan", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			rec.Report(metrics[0].Name, math.NaN())
			return nil
		}, nil
	})
	d, err := New(Config{Dir: t.TempDir(), Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())
	sp := baseSpec("trials-nan")
	sp.Budget = 2
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusDone)
	for read := 1; read <= 2; read++ {
		var apiErr struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+"/studies/"+m.ID+"/trials", &apiErr); code != http.StatusInternalServerError || apiErr.Error == "" {
			t.Fatalf("read %d of trials with a NaN metric: %d %+v", read, code, apiErr)
		}
	}
}

// TestWireFormSurvivesDispatch: the hash a dispatch carries is taken over
// the spec's wire form, and that form is what a worker decodes — also for
// a hand-written spec file with indentation and characters encoding/json
// escapes on the way out. (Hashing the persisted bytes, as wrapFor once
// did, named bytes no worker ever saw.)
func TestWireFormSurvivesDispatch(t *testing.T) {
	indented, err := json.MarshalIndent(baseSpec("sphere"), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, persisted := range [][]byte{
		indented,
		[]byte("{ \"name\": \"<a&b> \",\n\t\"objective\": \"sphere\" }\n"),
	} {
		wire, err := wireForm(persisted)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(executor.TrialRequest{Spec: wire, SpecHash: executor.SpecHashOf(wire)})
		if err != nil {
			t.Fatal(err)
		}
		var got executor.TrialRequest
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if executor.SpecHashOf(got.Spec) != got.SpecHash {
			t.Fatalf("worker received %q, dispatched %q under its hash", got.Spec, wire)
		}
	}
}
