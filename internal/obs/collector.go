package obs

import (
	"fmt"
	"sort"
	"time"
)

// This file is the collector half of the registry: instead of every subsystem
// threading its counters through whoever owns the shared registry, a
// subsystem implements the two-method Collector interface and registers
// itself once. At scrape time the registry gathers each collector's samples
// (alongside its own directly-registered series), records per-collector
// success and duration self-metrics, and /healthz reports each collector's
// last outcome. A failing or panicking collector costs only its own series —
// the scrape and every other collector still render.

// Metric is one collected sample: a full series name (labels baked in), its
// family help text and kind, and either a scalar value or a histogram
// snapshot. Collectors send these on the channel passed to Collect.
type Metric struct {
	// Name is the full series name, labels included:
	// `gbmqo_exec_kernel_total{kind="hash"}`.
	Name string
	// Help is the family's # HELP text (first writer wins within a family).
	Help string
	// Kind is the family's # TYPE.
	Kind Kind
	// Value carries counter and gauge samples.
	Value float64
	// Hist carries histogram samples (Kind == KindHistogram); Value is
	// ignored when set.
	Hist *HistSnapshot
}

// HistSnapshot is a point-in-time copy of a histogram: per-bucket counts
// (non-cumulative, one per bound), the total observation count, and the sum.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the cumulative buckets, the standard Prometheus histogram_quantile
// estimate: the target rank is located in its bucket and positioned
// proportionally between the bucket's bounds (the first bucket interpolates
// from zero). Observations beyond the last finite bound clamp to that bound.
// An empty histogram returns 0.
func (s *HistSnapshot) Quantile(q float64) float64 {
	total := float64(s.Count)
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	cum, lower := 0.0, 0.0
	for i, b := range s.Bounds {
		n := float64(s.Counts[i])
		if n > 0 && cum+n >= rank {
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lower + (b-lower)*frac
		}
		cum += n
		lower = b
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}

// Collector is the one interface a subsystem implements to surface metrics
// and health: Name identifies it (unique per registry; also the label on its
// self-metrics), Collect sends every current sample on ch and returns nil,
// or an error when the subsystem cannot report. Collect must be safe for
// concurrent use and must not retain ch.
type Collector interface {
	Name() string
	Collect(ch chan<- Metric) error
}

// HealthDetailer is optionally implemented by collectors that contribute a
// section to /healthz: key names the JSON field ("breakers", "appends", …),
// detail is its value, and include gates emission (so empty sections keep
// today's absent-key behavior).
type HealthDetailer interface {
	HealthDetail() (key string, detail any, include bool)
}

// CollectorHealth is one collector's status from the most recent gather:
// whether Collect succeeded, its error if not, and how long it took.
type CollectorHealth struct {
	Name     string
	OK       bool
	Err      string
	Duration time.Duration
}

// collectorEntry tracks one registered collector and its self-metrics.
type collectorEntry struct {
	c        Collector
	collects *Counter
	errs     *Counter
	success  *Gauge
	duration *Gauge
}

// RegisterCollector adds c to the registry's gather set. Its samples appear
// in every WritePrometheus / Snapshot alongside directly registered series
// (direct series win name collisions), and four self-metrics track it:
// gbmqo_obs_collects_total, gbmqo_obs_collect_errors_total,
// gbmqo_obs_collect_success and gbmqo_obs_collect_duration_seconds, each
// labeled {collector="<name>"}. Registering a second collector under the
// same name is an error.
func (r *Registry) RegisterCollector(c Collector) error {
	name := c.Name()
	if name == "" {
		return fmt.Errorf("obs: collector with empty name")
	}
	r.mu.Lock()
	for _, e := range r.collectors {
		if e.c.Name() == name {
			r.mu.Unlock()
			return fmt.Errorf("obs: collector %q already registered", name)
		}
	}
	r.mu.Unlock()
	e := &collectorEntry{
		c: c,
		collects: r.Counter(fmt.Sprintf("gbmqo_obs_collects_total{collector=%q}", name),
			"metric gathers per collector"),
		errs: r.Counter(fmt.Sprintf("gbmqo_obs_collect_errors_total{collector=%q}", name),
			"failed metric gathers per collector"),
		success: r.Gauge(fmt.Sprintf("gbmqo_obs_collect_success{collector=%q}", name),
			"1 when the collector's last gather succeeded, 0 when it failed"),
		duration: r.Gauge(fmt.Sprintf("gbmqo_obs_collect_duration_seconds{collector=%q}", name),
			"duration of the collector's last gather"),
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, e)
	r.mu.Unlock()
	return nil
}

// Collectors returns the registered collectors in registration order.
func (r *Registry) Collectors() []Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Collector, len(r.collectors))
	for i, e := range r.collectors {
		out[i] = e.c
	}
	return out
}

// gatherCap bounds the samples one Collect call may send: the gather channel
// is buffered this deep and drained only after the collector returns, so the
// whole scrape runs synchronously in the calling goroutine — no per-scrape
// goroutines, no channel handoff context switches. (A scrape-per-iteration
// hot loop on GOMAXPROCS=1 must not starve the serving path; goroutine-per-
// collector gathers did exactly that.) A collector exceeding the cap would
// block forever, so it is deliberately generous: two orders of magnitude
// above the largest real collector.
const gatherCap = 4096

// runCollector runs one collector synchronously in the calling goroutine,
// with panic containment: a panicking collector yields an error, never a
// dead scrape. Caller must hold r.gatherMu (the buffered channel is reused
// across gathers to keep scrape-time allocation flat).
func (r *Registry) runCollector(c Collector) (out []Metric, err error) {
	if r.gatherCh == nil {
		r.gatherCh = make(chan Metric, gatherCap)
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("obs: collector %q panicked: %v", c.Name(), p)
			}
		}()
		err = c.Collect(r.gatherCh)
	}()
	for {
		select {
		case m := <-r.gatherCh:
			out = append(out, m)
		default:
			return out, err
		}
	}
}

// gather runs every registered collector, updates its self-metrics, and
// returns the collected samples plus per-collector health.
func (r *Registry) gather() ([]Metric, []CollectorHealth) {
	r.mu.Lock()
	entries := append([]*collectorEntry(nil), r.collectors...)
	r.mu.Unlock()
	r.gatherMu.Lock()
	defer r.gatherMu.Unlock()
	var ms []Metric
	health := make([]CollectorHealth, 0, len(entries))
	for _, e := range entries {
		t0 := time.Now()
		collected, err := r.runCollector(e.c)
		d := time.Since(t0)
		e.collects.Inc()
		e.duration.Set(d.Seconds())
		h := CollectorHealth{Name: e.c.Name(), OK: err == nil, Duration: d}
		if err != nil {
			e.errs.Inc()
			e.success.Set(0)
			h.Err = err.Error()
		} else {
			e.success.Set(1)
			ms = append(ms, collected...)
		}
		health = append(health, h)
	}
	return ms, health
}

// CheckCollectors runs a fresh gather (self-metrics update exactly as a
// scrape would) and returns each collector's status — the /healthz payload.
func (r *Registry) CheckCollectors() []CollectorHealth {
	_, health := r.gather()
	return health
}

// Collect makes a Registry forwardable: every directly registered series is
// emitted as a Metric (Func callbacks evaluated fresh, histograms
// snapshotted). Subsystems that keep push-style counters on a private
// registry implement Collector by delegating here; registered collectors of
// the forwarded registry are NOT descended into.
func (r *Registry) Collect(ch chan<- Metric) error {
	for _, m := range r.directSeries() {
		ch <- m
	}
	return nil
}

// directSeries snapshots every directly registered series as Metrics, in
// registration order.
func (r *Registry) directSeries() []Metric {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	byName := make(map[string]*metric, len(names))
	for _, n := range names {
		byName[n] = r.metrics[n]
	}
	r.mu.Unlock()
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		m := byName[n]
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
		out = append(out, s)
	}
	return out
}

// allSeries is one scrape's merged view: collectors gathered first (so their
// self-metrics reflect this scrape), then direct series, then collected
// series that do not collide with a direct name.
func (r *Registry) allSeries() []Metric {
	collected, _ := r.gather()
	direct := r.directSeries()
	seen := make(map[string]bool, len(direct)+len(collected))
	out := make([]Metric, 0, len(direct)+len(collected))
	for _, m := range direct {
		seen[m.Name] = true
		out = append(out, m)
	}
	for _, m := range collected {
		if seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
