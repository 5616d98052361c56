package obs

import (
	"errors"
	"strings"
	"testing"
)

// --- Quantile estimates pinned on known distributions -----------------------

// testHist is a histogram with the given upper bounds on a registry of its
// own.
func testHist(bounds ...float64) *Histogram {
	return NewRegistry().Histogram("test_seconds", "quantile test histogram", bounds)
}

// uniformHist observes 1..n once each against bounds at every multiple of
// step up to n, so the true quantiles land exactly on interpolation points.
func uniformHist(n int, step float64) *Histogram {
	var bounds []float64
	for b := step; b <= float64(n); b += step {
		bounds = append(bounds, b)
	}
	h := testHist(bounds...)
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	return h
}

func TestQuantileUniform(t *testing.T) {
	// 1000 samples uniform over (0,1000], bounds every 10: the bucket holding
	// rank q*1000 has lower bound 10*(k-1), upper 10k, and 10 samples, so the
	// linear interpolation reproduces the exact empirical quantile.
	h := uniformHist(1000, 10)
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500},
		{0.95, 950},
		{0.99, 990},
		{1.00, 1000},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	// All mass in one bucket interpolates within that bucket's width.
	h := testHist(10, 20, 30)
	for i := 0; i < 100; i++ {
		h.Observe(15) // all land in (10, 20]
	}
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %v, want 15 (midpoint of (10,20])", got)
	}
	if got := h.Quantile(1.0); got != 20 {
		t.Errorf("Quantile(1.0) = %v, want 20 (bucket upper bound)", got)
	}
}

func TestQuantileOverflowClampsToLastBound(t *testing.T) {
	h := testHist(1, 2)
	h.Observe(0.5)
	h.Observe(100) // beyond the last finite bound
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("Quantile(0.99) = %v, want clamp to last bound 2", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := testHist(1, 2, 3)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile on empty histogram = %v, want 0", got)
	}
	var s HistSnapshot
	if got := s.Quantile(0.9); got != 0 {
		t.Errorf("Quantile on zero snapshot = %v, want 0", got)
	}
}

// --- Collector machinery ----------------------------------------------------

type fakeCollector struct {
	name    string
	metrics []Metric
	err     error
	panics  bool
}

func (f *fakeCollector) Name() string { return f.name }
func (f *fakeCollector) Collect(ch chan<- Metric) error {
	if f.panics {
		panic("boom")
	}
	for _, m := range f.metrics {
		ch <- m
	}
	return f.err
}

func TestRegisterCollectorDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterCollector(&fakeCollector{name: "a"}); err != nil {
		t.Fatalf("first register: %v", err)
	}
	if err := r.RegisterCollector(&fakeCollector{name: "a"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := r.RegisterCollector(&fakeCollector{name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if n := len(r.Collectors()); n != 1 {
		t.Fatalf("Collectors() len = %d, want 1", n)
	}
}

func TestCollectorSamplesInScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("direct_total", "a direct counter").Add(3)
	c := &fakeCollector{name: "fake", metrics: []Metric{
		{Name: `col_total{k="v"}`, Help: "collected", Kind: KindCounter, Value: 7},
	}}
	if err := r.RegisterCollector(c); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"direct_total 3",
		`col_total{k="v"} 7`,
		"# TYPE col_total counter",
		`gbmqo_obs_collects_total{collector="fake"} 1`,
		`gbmqo_obs_collect_success{collector="fake"} 1`,
		`gbmqo_obs_collect_duration_seconds{collector="fake"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	if snap[`col_total{k="v"}`] != 7 {
		t.Errorf("Snapshot col_total = %v, want 7", snap[`col_total{k="v"}`])
	}
}

func TestCollectorErrorAndPanicContained(t *testing.T) {
	r := NewRegistry()
	r.Counter("alive_total", "survives bad collectors").Inc()
	bad := &fakeCollector{name: "bad", err: errors.New("down"),
		metrics: []Metric{{Name: "bad_series", Kind: KindGauge, Value: 1}}}
	pan := &fakeCollector{name: "pan", panics: true}
	ok := &fakeCollector{name: "ok", metrics: []Metric{
		{Name: "ok_series", Help: "fine", Kind: KindGauge, Value: 2}}}
	for _, c := range []Collector{bad, pan, ok} {
		if err := r.RegisterCollector(c); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, "alive_total 1") || !strings.Contains(out, "ok_series 2") {
		t.Errorf("healthy series missing from scrape\n%s", out)
	}
	if strings.Contains(out, "bad_series") {
		t.Errorf("failed collector's samples leaked into scrape\n%s", out)
	}
	if !strings.Contains(out, `gbmqo_obs_collect_success{collector="bad"} 0`) ||
		!strings.Contains(out, `gbmqo_obs_collect_success{collector="pan"} 0`) ||
		!strings.Contains(out, `gbmqo_obs_collect_success{collector="ok"} 1`) {
		t.Errorf("self-metrics wrong\n%s", out)
	}

	health := r.CheckCollectors()
	byName := map[string]CollectorHealth{}
	for _, h := range health {
		byName[h.Name] = h
	}
	if byName["bad"].OK || byName["bad"].Err != "down" {
		t.Errorf("bad health = %+v", byName["bad"])
	}
	if byName["pan"].OK || !strings.Contains(byName["pan"].Err, "panicked") {
		t.Errorf("pan health = %+v", byName["pan"])
	}
	if !byName["ok"].OK {
		t.Errorf("ok health = %+v", byName["ok"])
	}
}

func TestDirectSeriesWinCollisions(t *testing.T) {
	r := NewRegistry()
	r.Gauge("shared_series", "direct owner").Set(42)
	c := &fakeCollector{name: "shadow", metrics: []Metric{
		{Name: "shared_series", Help: "impostor", Kind: KindGauge, Value: 7}}}
	if err := r.RegisterCollector(c); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot()["shared_series"]; got != 42 {
		t.Errorf("collision: got %v, want direct value 42", got)
	}
}

func TestRegistryForwardsAsCollector(t *testing.T) {
	// A subsystem keeps counters on a private registry and forwards it.
	private := NewRegistry()
	private.Counter("sub_ops_total", "subsystem ops").Add(5)
	private.Histogram("sub_latency_seconds", "subsystem latency", []float64{0.1, 1}).Observe(0.05)

	root := NewRegistry()
	if err := root.RegisterCollector(namedForward{r: private}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	root.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"sub_ops_total 5",
		`sub_latency_seconds_bucket{le="0.1"} 1`,
		`sub_latency_seconds_bucket{le="+Inf"} 1`,
		"sub_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("forwarded scrape missing %q\n%s", want, out)
		}
	}
}

type namedForward struct{ r *Registry }

func (n namedForward) Name() string                   { return "sub" }
func (n namedForward) Collect(ch chan<- Metric) error { return n.r.Collect(ch) }
