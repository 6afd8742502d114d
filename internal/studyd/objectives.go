package studyd

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/mathx"
	"rldecide/internal/param"
)

// ObjectiveFactory builds a study objective for a submitted spec. The
// daemon cannot execute arbitrary code from the network, so every
// objective a spec may name must be registered in-process — the same
// pattern RL serving systems use for environment registries.
//
// The returned objective is called repeatedly and from several goroutines
// at once — by core.Study when Parallelism > 1, and by EvaluateRequest,
// which builds it once per spec and keeps it for every later trial — so
// whatever it closes over must be read-only or synchronized.
type ObjectiveFactory func(spec Spec, metrics []core.Metric) (core.Objective, error)

// maxPreparedSpecs bounds the prepared-spec cache: past that many
// interleaved specs the evaluator prepares per trial again, which is what
// it did before the cache existed, and a worker answers the evicted
// spec's hash-only dispatches 428 until the dispatcher resends it.
const maxPreparedSpecs = 64

// objMu guards the registry and, beside it, the prepared-spec cache.
var (
	objMu       sync.RWMutex
	objRegistry = map[string]ObjectiveFactory{}
	// preparedSpecs holds the prepared form of recently evaluated specs by
	// content hash, oldest first in preparedOrder. It is the process's one
	// spec-hash cache and answers two questions: which CPU the evaluator
	// may skip, and, on a worker, which bytes the dispatcher may omit (a
	// hash-only request it holds nothing for is a 428).
	preparedSpecs = map[string]*evalSpec{}
	preparedOrder []string
	// objGen counts registrations, so that a spec prepared against a
	// registry that changed meanwhile is not filed.
	objGen int
)

// RegisterObjective makes an objective available to submitted specs under
// the given name, replacing any previous registration. Prepared specs hold
// the objective their factory built, so all of them are dropped; on a
// worker, the next hash-only dispatch of each is a 428 and one full
// resend.
func RegisterObjective(name string, f ObjectiveFactory) {
	if name == "" || f == nil {
		panic("studyd: RegisterObjective needs a name and a factory")
	}
	objMu.Lock()
	defer objMu.Unlock()
	objRegistry[name] = f
	objGen++
	clear(preparedSpecs)
	preparedOrder = nil
}

// Objectives lists the registered objective names, sorted.
func Objectives() []string {
	objMu.RLock()
	defer objMu.RUnlock()
	out := make([]string, 0, len(objRegistry))
	for name := range objRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func buildObjective(spec Spec, metrics []core.Metric) (core.Objective, error) {
	objMu.RLock()
	f, ok := objRegistry[spec.Objective]
	objMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("studyd: unknown objective %q (registered: %v)", spec.Objective, Objectives())
	}
	return f(spec, metrics)
}

func init() {
	RegisterObjective("sphere", syntheticObjective(func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return s
	}))
	RegisterObjective("rastrigin", syntheticObjective(func(x []float64) float64 {
		s := 10.0 * float64(len(x))
		for _, v := range x {
			s += v*v - 10*math.Cos(2*math.Pi*v)
		}
		return s
	}))
}

// syntheticObjective adapts a numeric test function into a study
// objective: metric 0 gets f over the numeric parameters, metric 1 (when
// declared) gets the L1 norm as an antagonistic "cost", so two-metric
// studies have a real Pareto trade-off. Values depend only on (params,
// seed) — the determinism resume needs.
func syntheticObjective(f func([]float64) float64) ObjectiveFactory {
	return func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		if len(metrics) > 2 {
			return nil, fmt.Errorf("studyd: objective %q supports at most 2 metrics, got %d", spec.Objective, len(metrics))
		}
		sleep := time.Duration(spec.SleepMs) * time.Millisecond
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			if sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-rec.Context().Done():
					return rec.Context().Err()
				}
			}
			x := numericValues(a)
			noise := 0.0
			if spec.Noise > 0 {
				noise = mathx.NewRand(seed).NormFloat64() * spec.Noise
			}
			rec.Report(metrics[0].Name, f(x)+noise)
			if len(metrics) > 1 {
				l1 := 0.0
				for _, v := range x {
					if v < 0 {
						v = -v
					}
					l1 += v
				}
				rec.Report(metrics[1].Name, l1+noise)
			}
			return nil
		}, nil
	}
}

// numericValues extracts the numeric parameters of an assignment in a
// deterministic (name-sorted) order — the assignment's own binding order.
func numericValues(a param.Assignment) []float64 {
	out := make([]float64, 0, len(a))
	for _, b := range a {
		if b.Value.Kind() == param.KindInt || b.Value.Kind() == param.KindFloat {
			out = append(out, b.Value.Float())
		}
	}
	return out
}
