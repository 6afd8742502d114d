package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The machine this suite is gated on is a few cores of a shared host. Its
// neighbours slow it down in bursts of tenths of a second to seconds, and
// never speed it up, so the middle of a run's samples moves with the
// neighbours while the best part of the run does not. Every gated timing is
// therefore taken from the quiet fifth of the run: the timed phase is cut
// into windows, the windows are ranked by the work done in them, and the
// fifth that got the most done is what the run reports. A change to the
// program moves every window, the quiet ones too.

// quietShare is the share of a run's windows (or repeats) its gated
// timings are taken from.
const quietShare = 0.2

// window is one stretch of a timed phase, or one repeat of a workload that
// repeats: the work done per second in it, by kind, and the latencies (ms)
// of the operations that ended in it, by kind.
type window struct {
	rate map[string]float64
	lat  map[string][]float64
}

func newWindow() window {
	return window{rate: map[string]float64{}, lat: map[string][]float64{}}
}

// quiet returns the quietShare of ws (at least one) in which the most got
// done. With more than one kind of work a window's rank is the sum of its
// rates, each as a share of that kind's mean over the run.
func quiet(ws []window, works ...string) []window {
	if len(ws) == 0 {
		return nil
	}
	mean := map[string]float64{}
	for _, w := range ws {
		for _, k := range works {
			mean[k] += w.rate[k] / float64(len(ws))
		}
	}
	index := func(w window) float64 {
		s := 0.0
		for _, k := range works {
			if mean[k] > 0 {
				s += w.rate[k] / mean[k]
			}
		}
		return s
	}
	out := append([]window(nil), ws...)
	sort.SliceStable(out, func(i, j int) bool { return index(out[i]) > index(out[j]) })
	return out[:int(math.Ceil(quietShare*float64(len(out))))]
}

// quietTimes is quiet for repeats of one piece of work that are nothing but
// a duration each: the fastest quietShare of xs (at least one), ascending.
func quietTimes(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[:int(math.Ceil(quietShare*float64(len(s))))]
}

// rateOf is the rate of one kind of work over the windows together, their
// mean. A single window's rate comes in steps of one operation per window
// (a 400-trial study in half a second is 7 % of a fleet's rate), and a
// median of windows would stay on those steps.
func rateOf(ws []window, work string) float64 {
	var v []float64
	for _, w := range ws {
		v = append(v, w.rate[work])
	}
	return mean(v)
}

// latOf pools the windows' latency samples of one kind.
func latOf(ws []window, kind string) []float64 {
	var v []float64
	for _, w := range ws {
		v = append(v, w.lat[kind]...)
	}
	return v
}

// phase records what closed-loop clients complete during a timed phase.
type phase struct {
	start time.Duration // now() reading
	mu    sync.Mutex
	// guarded-by: mu
	ops []op
}

// op is one completed operation: it ran from..to (offsets from the phase's
// start), belongs to the latency population kind, and completed units of
// work (trials, reads); units 0 is a latency sample only.
type op struct {
	kind     string
	from, to time.Duration
	work     string
	units    float64
}

func newPhase() *phase { return &phase{start: now()} }

// record adds an operation that ran from..to (now() readings).
func (p *phase) record(kind string, from, to time.Duration, work string, units float64) {
	o := op{kind: kind, from: from - p.start, to: to - p.start, work: work, units: units}
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
}

// windows cuts the first total of the phase into whole windows of length w.
// An operation's work is spread evenly over its span, so a window's rate
// does not depend on which side of a boundary the operation happened to
// end; its latency goes to the window it ended in, and is dropped when it
// ended after the last. A phase too short for one window (the smoke test's)
// is one window that holds everything.
func (p *phase) windows(total, w time.Duration) []window {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := int(total / w)
	if n < 1 {
		n, w = 1, total
		for _, o := range p.ops {
			w = max(w, o.to+1)
		}
	}
	out := make([]window, n)
	for i := range out {
		out[i] = newWindow()
	}
	for _, o := range p.ops {
		if i := int(o.to / w); i < n {
			out[i].lat[o.kind] = append(out[i].lat[o.kind], ms(o.to-o.from))
		}
		if o.units == 0 {
			continue
		}
		span := float64(max(o.to-o.from, 1))
		for i := int(o.from / w); i <= int(o.to/w) && i < n; i++ {
			lo, hi := max(o.from, time.Duration(i)*w), min(o.to, time.Duration(i+1)*w)
			out[i].rate[o.work] += o.units * float64(hi-lo) / span / w.Seconds()
		}
	}
	return out
}

// all pools every latency sample of one kind, whichever window it ended in
// or after: the tails are reported over the whole phase.
func (p *phase) all(kind string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v []float64
	for _, o := range p.ops {
		if o.kind == kind {
			v = append(v, ms(o.to-o.from))
		}
	}
	return v
}
