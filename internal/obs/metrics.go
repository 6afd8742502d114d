package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the fixed bucket layout (seconds) shared by every
// latency histogram in the tree. Fixed layouts keep exposition stable for
// the golden test and make cross-daemon series comparable.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Sample is one labeled value produced by a GaugeFunc collector at
// exposition time.
type Sample struct {
	// Labels are name/value pairs rendered in declaration order.
	Labels [][2]string
	Value  float64
}

// StampDaemon prepends the daemon="<name>" label to every sample collect
// returns. An unnamed (single-daemon) deployment passes "" and keeps its
// series exactly as they are; in a sharded fleet the label is what keeps
// two daemons' series from colliding when the router merges their
// expositions.
func StampDaemon(name string, collect func() []Sample) func() []Sample {
	if name == "" {
		return collect
	}
	label := [2]string{"daemon", name}
	return func() []Sample {
		samples := collect()
		for i := range samples {
			samples[i].Labels = append([][2]string{label}, samples[i].Labels...)
		}
		return samples
	}
}

// Counter is a monotonically increasing counter. Inc and Add are
// allocation-free atomic updates, safe on zero-alloc hot paths.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observe is a linear
// scan over the (small, fixed) bucket bounds plus two atomic updates —
// no allocation, no lock.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind tags an instrument for the # TYPE exposition line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindGaugeFunc
	kindCounterFunc
)

// instrument is one registered metric family.
type instrument struct {
	name    string
	help    string
	kind    metricKind
	counter *Counter
	hist    *Histogram
	collect func() []Sample
}

// Registry holds a set of named instruments and renders them in
// Prometheus text exposition format 0.0.4. Families are kept in a slice
// and sorted by name at exposition time, so output order is
// deterministic regardless of registration order.
type Registry struct {
	mu sync.Mutex
	// guarded-by: mu
	byName map[string]bool
	// guarded-by: mu
	fams []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) add(in *instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[in.name] {
		panic("obs: duplicate metric " + in.name)
	}
	r.byName[in.name] = true
	r.fams = append(r.fams, in)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.add(&instrument{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewHistogram registers and returns a histogram with the given ascending
// bucket upper bounds (a trailing +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.add(&instrument{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// NewGaugeFunc registers a gauge family whose labeled samples are
// produced by collect at exposition time. Use it for state that already
// lives elsewhere (worker tables, slot counts) so scraping never
// duplicates bookkeeping on the hot path.
func (r *Registry) NewGaugeFunc(name, help string, collect func() []Sample) {
	r.add(&instrument{name: name, help: help, kind: kindGaugeFunc, collect: collect})
}

// NewCounterFunc registers a counter family whose labeled samples are
// produced by collect at exposition time. The collector must return
// monotonically non-decreasing values per label set (e.g. the event bus's
// per-subscription drop totals).
func (r *Registry) NewCounterFunc(name, help string, collect func() []Sample) {
	r.add(&instrument{name: name, help: help, kind: kindCounterFunc, collect: collect})
}

// snapshot returns the families sorted by name.
func (r *Registry) snapshot() []*instrument {
	r.mu.Lock()
	fams := append([]*instrument(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// formatFloat renders a float the way Prometheus text format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func writeSample(w io.Writer, name string, labels [][2]string, value string) error {
	if len(labels) == 0 {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, lv := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(lv[0])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(lv[1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	_, err := fmt.Fprintf(w, "%s %s\n", sb.String(), value)
	return err
}

// WriteText renders every family in Prometheus text exposition format
// 0.0.4, sorted by family name.
func (r *Registry) WriteText(w io.Writer) error {
	for _, in := range r.snapshot() {
		typ := "counter"
		switch in.kind {
		case kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		// kindCounterFunc keeps the default "counter" type.
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", in.name, in.help, in.name, typ); err != nil {
			return err
		}
		var err error
		switch in.kind {
		case kindCounter:
			err = writeSample(w, in.name, nil, strconv.FormatUint(in.counter.Value(), 10))
		case kindGaugeFunc, kindCounterFunc:
			for _, s := range in.collect() {
				if err = writeSample(w, in.name, s.Labels, formatFloat(s.Value)); err != nil {
					break
				}
			}
		case kindHistogram:
			h := in.hist
			var cum uint64
			for i, b := range h.bounds {
				cum += h.buckets[i].Load()
				if err = writeSample(w, in.name+"_bucket", [][2]string{{"le", formatFloat(b)}}, strconv.FormatUint(cum, 10)); err != nil {
					return err
				}
			}
			cum += h.buckets[len(h.bounds)].Load()
			if err = writeSample(w, in.name+"_bucket", [][2]string{{"le", "+Inf"}}, strconv.FormatUint(cum, 10)); err != nil {
				return err
			}
			if err = writeSample(w, in.name+"_sum", nil, formatFloat(h.Sum())); err != nil {
				return err
			}
			err = writeSample(w, in.name+"_count", nil, strconv.FormatUint(h.Count(), 10))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the concatenated exposition of the given registries at
// GET. Duplicate-family collisions across registries are the caller's
// responsibility (daemons pass Default plus their own registry).
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r == nil {
				continue
			}
			if err := r.WriteText(w); err != nil {
				return
			}
		}
	})
}
