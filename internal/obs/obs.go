// Package obs is the DB's one metrics registry: atomically-updated
// counters, gauges and histograms, plus a list of sample functions read at
// scrape time, rendered as Prometheus text exposition format (the layout
// exporters like wmi_exporter produce) or as a flat name → value map. It has
// no dependency on the rest of the module, so every layer — scheduler,
// engine, cache, server — can hang its counters here without import cycles.
//
// Concurrency: every metric type is safe for concurrent use. Counter and
// Gauge are single atomic words; Histogram uses per-bucket atomics; the
// registry itself takes a mutex only on registration and to copy its series
// list at scrape time, never on update. A scrape runs entirely on the
// calling goroutine: it starts no goroutine and hands nothing over a channel,
// so a scrape loop on GOMAXPROCS=1 cannot starve the serving path.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the Prometheus metric type emitted in the # TYPE line.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing float64 (Prometheus counters are
// floats; plan costs need the fraction, event counts stay integral).
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d (d must be >= 0; negative deltas are
// silently dropped to keep the counter monotonic).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	for {
		old := c.bits.Load()
		v := math.Float64frombits(old) + d
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMax raises the gauge to v when v exceeds the current value (for
// high-water marks like peak memory).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus shape:
// observation counts per upper bound, plus _sum and _count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	sum    Counter
	total  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.counts[len(h.bounds)].Add(1) // +Inf bucket counts everything
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Snapshot copies the histogram's current bucket counts, sum and total.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.bounds)),
	}
	for i := range h.bounds {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.total.Load()
	s.Sum = h.sum.Value()
	return s
}

// HistSnapshot is a point-in-time copy of a histogram: per-bucket counts
// (non-cumulative, one per bound), the total observation count, and the sum.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Metric is one sample of a series: its full name (labels baked in), its
// family's help text and kind, and either a scalar value or a histogram
// snapshot. Sample functions emit these.
type Metric struct {
	// Name is the full series name, labels included:
	// `gbmqo_exec_kernel_total{kind="hash"}`.
	Name string
	// Help is the family's # HELP text (first series of a family wins).
	Help string
	// Kind is the family's # TYPE.
	Kind Kind
	// Value carries counter and gauge samples.
	Value float64
	// Hist carries histogram samples (Kind == KindHistogram); Value is
	// ignored when set.
	Hist *HistSnapshot
}

// metric is one registered family member (possibly carrying baked-in labels).
type metric struct {
	name    string // full series name, labels included: foo_total{scope="request"}
	help    string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // scrape-time callback (Func)
}

// family groups series sharing a metric name for single # HELP/# TYPE lines.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Registry holds directly registered series plus the sample functions read
// at scrape time. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metric
	order    []*metric
	samplers []func(emit func(Metric))
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.metrics[m.name]; ok {
		return have // idempotent: same series resolves to the same metric
	}
	r.metrics[m.name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers a counter series and returns its backing object;
// registering the same series name again returns the original, so updates
// from every caller land on one series. name may carry baked-in labels:
// `gbmqo_exec_retries_total{scope="request"}` — series of one family
// share # HELP/# TYPE lines in the exposition.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: KindCounter, counter: &Counter{}})
	if m.counter == nil {
		return &Counter{} // name collided with another type; detached fallback
	}
	return m.counter
}

// Gauge registers (or resolves) a gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: KindGauge, gauge: &Gauge{}})
	if m.gauge == nil {
		return &Gauge{}
	}
	return m.gauge
}

// Histogram registers a histogram with the given upper bounds (ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1)}
	m := r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	if m.hist == nil {
		return h
	}
	return m.hist
}

// Func registers a scrape-time callback series: the value is read fresh on
// every scrape (how counters another subsystem already keeps surface without
// double bookkeeping).
func (r *Registry) Func(name, help string, kind Kind, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kind, fn: fn})
}

// Sample registers fn to be called on every scrape; it emits the series it
// reads at that moment (a set whose members come and go, like per-breaker
// gauges, or several series read from one snapshot). fn runs on the
// scraping goroutine, possibly from several scrapes at once.
func (r *Registry) Sample(fn func(emit func(Metric))) {
	r.mu.Lock()
	r.samplers = append(r.samplers, fn)
	r.mu.Unlock()
}

// Emit sends every series to emit: the directly registered ones in
// registration order (Func callbacks evaluated, histograms snapshotted),
// then each sample function's. A subsystem that keeps its counters on a
// registry of its own forwards them by calling Emit from a sample function
// of the registry that owns the scrape.
func (r *Registry) Emit(emit func(Metric)) {
	r.mu.Lock()
	direct, samplers := slices.Clone(r.order), slices.Clone(r.samplers)
	r.mu.Unlock()
	for _, m := range direct {
		s := Metric{Name: m.name, Help: m.help, Kind: m.kind}
		switch {
		case m.hist != nil:
			s.Hist = m.hist.Snapshot()
		case m.fn != nil:
			s.Value = m.fn()
		case m.counter != nil:
			s.Value = m.counter.Value()
		case m.gauge != nil:
			s.Value = m.gauge.Value()
		}
		emit(s)
	}
	for _, fn := range samplers {
		fn(emit)
	}
}

// allSeries is one scrape: every emitted series sorted by name, the first
// emission of a name winning (so a direct series shadows a sampled one).
func (r *Registry) allSeries() []Metric {
	var out []Metric
	seen := map[string]bool{}
	r.Emit(func(m Metric) {
		if !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m)
		}
	})
	slices.SortFunc(out, func(a, b Metric) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// WritePrometheus renders every series in Prometheus text exposition format
// (text/plain; version 0.0.4), sorted by name, # HELP and # TYPE emitted
// once per family (the first series' help wins).
func (r *Registry) WritePrometheus(w io.Writer) {
	seenFamily := map[string]bool{}
	for _, m := range r.allSeries() {
		fam := familyOf(m.Name)
		if !seenFamily[fam] {
			seenFamily[fam] = true
			fmt.Fprintf(w, "# HELP %s %s\n", fam, m.Help)
			fmt.Fprintf(w, "# TYPE %s %s\n", fam, m.Kind)
		}
		if h := m.Hist; h != nil {
			cum := int64(0)
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", fam, formatFloat(b), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", fam, h.Count)
			fmt.Fprintf(w, "%s_sum %s\n", fam, formatFloat(h.Sum))
			fmt.Fprintf(w, "%s_count %d\n", fam, h.Count)
			continue
		}
		fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value))
	}
}

// Snapshot returns every series' current value keyed by series name
// (histograms contribute name_sum and name_count).
func (r *Registry) Snapshot() map[string]float64 {
	series := r.allSeries()
	out := make(map[string]float64, len(series))
	for _, m := range series {
		if h := m.Hist; h != nil {
			out[m.Name+"_sum"] = h.Sum
			out[m.Name+"_count"] = float64(h.Count)
			continue
		}
		out[m.Name] = m.Value
	}
	return out
}

// formatFloat renders a float the way Prometheus clients do: integral values
// without a decimal point, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DurationBuckets are the default latency histogram bounds, in seconds
// (50µs … ~3.2s, powers of four).
var DurationBuckets = []float64{0.00005, 0.0002, 0.0008, 0.0032, 0.0128, 0.0512, 0.2048, 0.8192, 3.2768}

// SizeBuckets are the default batch-size histogram bounds.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
