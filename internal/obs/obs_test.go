package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-5) // dropped: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("t_gauge", "a gauge")
	g.Set(4)
	g.Add(-1)
	g.SetMax(2) // below current: no-op
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %v, want 9", got)
	}
}

func TestDuplicateRegistrationSharesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h")
	b := r.Counter("dup_total", "h")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("duplicate registration split the series: %v / %v", a.Value(), b.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_hist", "a histogram", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 55.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`t_hist_bucket{le="1"} 1`,
		`t_hist_bucket{le="10"} 2`,
		`t_hist_bucket{le="+Inf"} 3`,
		"t_hist_sum 55.5",
		"t_hist_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`t_close_total{reason="full"}`, "closes").Add(2)
	r.Counter(`t_close_total{reason="deadline"}`, "closes").Inc()
	r.Func("t_resident_bytes", "residency", KindGauge, func() float64 { return 42 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	// One HELP/TYPE pair per family even with labeled series.
	if n := strings.Count(out, "# HELP t_close_total"); n != 1 {
		t.Fatalf("HELP emitted %d times:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE t_close_total counter"); n != 1 {
		t.Fatalf("TYPE emitted %d times:\n%s", n, out)
	}
	for _, want := range []string{
		`t_close_total{reason="full"} 2`,
		`t_close_total{reason="deadline"} 1`,
		"# TYPE t_resident_bytes gauge",
		"t_resident_bytes 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "h").Add(7)
	h := r.Histogram("s_hist", "h", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["s_total"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["s_hist_count"] != 1 || snap["s_hist_sum"] != 0.5 {
		t.Fatalf("snapshot hist = %v", snap)
	}
}

// A sample function's series render beside the direct ones, read fresh on
// every scrape, and a function that emits nothing adds nothing.
func TestSampleInScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("direct_total", "direct").Inc()
	calls := 0
	r.Sample(func(emit func(Metric)) {
		calls++
		emit(Metric{Name: `sampled_gauge{name="a"}`, Help: "sampled", Kind: KindGauge, Value: float64(calls)})
		emit(Metric{Name: "sampled_hist", Help: "sampled histogram", Kind: KindHistogram,
			Hist: &HistSnapshot{Bounds: []float64{1}, Counts: []int64{2}, Sum: 1.5, Count: 3}})
	})
	r.Sample(func(func(Metric)) {})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"direct_total 1",
		"# TYPE sampled_gauge gauge",
		`sampled_gauge{name="a"} 1`,
		`sampled_hist_bucket{le="1"} 2`,
		`sampled_hist_bucket{le="+Inf"} 3`,
		"sampled_hist_sum 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
	if got := r.Snapshot()[`sampled_gauge{name="a"}`]; got != 2 {
		t.Errorf("second scrape read %v, want the fresh value 2", got)
	}
}

func TestDirectSeriesWinCollisions(t *testing.T) {
	r := NewRegistry()
	r.Gauge("shared_series", "direct owner").Set(42)
	r.Sample(func(emit func(Metric)) {
		emit(Metric{Name: "shared_series", Help: "impostor", Kind: KindGauge, Value: 7})
	})
	if got := r.Snapshot()["shared_series"]; got != 42 {
		t.Errorf("collision: got %v, want direct value 42", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if n := strings.Count(sb.String(), "\nshared_series "); n != 1 {
		t.Errorf("series rendered %d times:\n%s", n, sb.String())
	}
}

// A subsystem keeps counters on a registry of its own and forwards them
// through a sample function of the registry that owns the scrape.
func TestRegistryForwardsThroughSample(t *testing.T) {
	private := NewRegistry()
	private.Counter("sub_ops_total", "subsystem ops").Add(5)
	private.Histogram("sub_latency_seconds", "subsystem latency", []float64{0.1, 1}).Observe(0.05)

	root := NewRegistry()
	root.Sample(private.Emit)
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

// Concurrent updates and scrapes must be clean under -race.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("c_gauge", "h")
	h := r.Histogram("c_hist", "h", DurationBuckets)
	r.Sample(func(emit func(Metric)) {
		emit(Metric{Name: "c_sampled", Help: "h", Kind: KindGauge, Value: c.Value()})
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(float64(i))
				h.Observe(0.001)
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				r.WritePrometheus(&sb)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("lost updates: %v", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("lost observations: %v", h.Count())
	}
}
