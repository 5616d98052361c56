package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smoke is the self-tests' scale: 5 000 rows and about a second a workload.
// The floors behind the end-to-end percentiles stay, so each is still
// guarded; only the 1 000 pages behind the traced run's p99 shrink.
func smoke(t *testing.T, workload string, seed int64, trace bool) config {
	c := defaultConfig()
	c.workload, c.seed, c.trace = workload, seed, trace
	c.rows, c.seconds, c.setups, c.minPages = 5000, 1, 2, 200
	c.outDir = t.TempDir()
	return c
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the registry the
// program prints from in step: same names, units, directions and bounds, in
// the same order, and the same workloads.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the registry:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs from the registry:\n json %v\n code %v", layer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, program has %v", names, workloadOrder)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

// TestEveryMetricPrintedOnce runs each workload untraced and traced at smoke
// scale and checks the output's shape: every name of the run's kind exactly
// once with its unit, the same names in the result line, no failed operation.
func TestEveryMetricPrintedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	exact := map[string]map[string]float64{}
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			c := smoke(t, w, 3, traced)
			o, err := runOne(c, workloads[w])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w, traced, o.Failed, o.Attempted, o.Problems)
			}
			var out bytes.Buffer
			if err := report(&out, o, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			count := map[string]int{}
			for _, ln := range lines {
				if f := strings.Fields(ln); len(f) >= 4 && f[0] == "metric" {
					count[f[1]+" "+f[3]]++
				}
			}
			var last resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w, err)
			}
			if len(last.Metrics) != len(defs) || len(count) != len(defs) {
				t.Errorf("%s traced=%v: %d metric lines and %d result metrics, want %d", w, traced, len(count), len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				if count[d.Name+" "+d.Unit] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times with unit %s", w, traced, d.Name, count[d.Name+" "+d.Unit], d.Unit)
				}
				m, ok := last.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line lacks %s in %s", w, traced, d.Name, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w, d.Name, m.Value)
				}
			}
			if traced {
				exact[w] = o.Ledger.vals
				checkTrace(t, c, w)
			}
		}
	}
	// Each workload demonstrably bypasses the layers it is meant to bypass.
	for name, v := range exact["batch_cold"] {
		for _, layer := range []string{"cache.", "sched.", "server.", "wal.", "snapshot.", "durable.", "shard."} {
			if strings.HasPrefix(name, layer) && v != 0 {
				t.Errorf("batch_cold: %s = %v, want 0", name, v)
			}
		}
	}
	if hr := exact["serve_hot"]["cache.hit_ratio"]; hr < 0.99 {
		t.Errorf("serve_hot: cache.hit_ratio %v, want at least 0.99", hr)
	}
	if hot, churn := exact["serve_hot"]["engine.rows_scanned"], exact["serve_churn"]["engine.rows_scanned"]; hot > churn/100 {
		t.Errorf("serve_hot scanned %v rows in its window, serve_churn %v: want under 1%%", hot, churn)
	}
	for _, name := range []string{"shard.retries", "shard.hedges_fired"} {
		if v := exact["batch_multicore"][name]; v != 0 {
			t.Errorf("batch_multicore: %s = %v, want 0", name, v)
		}
	}
	for _, name := range []string{"sched.rejected", "snapshot.errors", "durable.truncated_tails"} {
		if v := exact["serve_churn"][name]; v != 0 {
			t.Errorf("serve_churn: %s = %v, want 0", name, v)
		}
	}
}

// checkTrace reads a traced run's file back: spans nest inside their parents
// and share their request id.
func checkTrace(t *testing.T, c config, workload string) {
	t.Helper()
	b, err := os.ReadFile(c.outDir + "/trace-" + workload + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.SelfTime) == 0 {
		t.Fatalf("%s: empty trace", workload)
	}
	byID := map[uint64]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("%s: span %s (req %d) does not nest in its parent %+v", workload, s.Name, s.Req, p)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent", workload)
	}
}

// TestSeedDrivesInputs: the same seed gives the same schedule fingerprint and
// the same exact counts; another seed gives another PAIR-10 and other pages.
func TestSeedDrivesInputs(t *testing.T) {
	a, b, other := newBatchInputs(5), newBatchInputs(5), newBatchInputs(6)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different batch inputs")
	}
	if reflect.DeepEqual(a.pair, other.pair) {
		t.Error("different seeds, same PAIR-10")
	}
	if len(a.sc) != 12 || len(a.pair) != 10 || len(a.cont) != 8 {
		t.Errorf("batches hold %d, %d, %d sets, want 12, 10, 8", len(a.sc), len(a.pair), len(a.cont))
	}
	p1, p2, p3 := newPageStream(5, 0, 63), newPageStream(5, 0, 63), newPageStream(6, 0, 63)
	same, differs := true, false
	for i := 0; i < 50; i++ {
		x, y, z := p1.next(), p2.next(), p3.next()
		same = same && reflect.DeepEqual(x, y)
		differs = differs || !reflect.DeepEqual(x, z)
	}
	if !same || !differs {
		t.Errorf("page streams: same seed equal = %v, other seed differs = %v", same, differs)
	}
	if scheduleFNV(5, a, 63, nil) != scheduleFNV(5, b, 63, nil) || scheduleFNV(5, a, 63, nil) == scheduleFNV(6, other, 63, nil) {
		t.Error("schedule fingerprint does not follow the seed")
	}
}

// TestExactCountsRepeat: the counts the README calls exact repeat bit for bit
// for a given seed.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	var runs [2]map[string]float64
	for i := range runs {
		o, err := runOne(smoke(t, "batch_multicore", 9, true), runBatchMulticore)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = o.Ledger.vals
	}
	for _, name := range exactCounts {
		if runs[0][name] != runs[1][name] {
			t.Errorf("%s: %v then %v, want equal", name, runs[0][name], runs[1][name])
		}
	}
	for _, name := range []string{"core.optimizer_calls", "engine.rows_scanned", "engine.work_ratio", "shard.rows_scanned", "loadgen.schedule_fnv"} {
		if runs[0][name] == 0 {
			t.Errorf("%s is 0: the workload did not report it", name)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	v := make([]float64, 99)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if _, err := percentile(v, 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was not refused")
	}
	v = append(v, 100)
	if got, err := percentile(v, 0.9); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(v[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples was not refused")
	}
	if _, err := percentile(make([]float64, 999), 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7}, 3, 10},
		{[]float64{4, 1, 9, 16, 25, 36}, 3.25, 27.75},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestAppendLatencyRunsFromDueTime: one stalled append must show in the
// samples of the appends it delayed, not only in its own.
func TestAppendLatencyRunsFromDueTime(t *testing.T) {
	const every, stall = 10 * time.Millisecond, 50 * time.Millisecond
	start := time.Now()
	lat, maxLate, errs := paceWriter(start, every, func(i int) bool { return i == 12 }, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		if i == 9 {
			return errors.New("refused")
		}
		return nil
	})
	if len(errs) != 1 || len(lat) != 11 {
		t.Fatalf("%d samples and %d errors, want 11 and 1", len(lat), len(errs))
	}
	if lat[2] < stall {
		t.Errorf("the stalled append took %v, want at least %v", lat[2], stall)
	}
	// Appends 3..6 were due 10..40 ms into the stall: each waited the rest.
	for i, want := range map[int]time.Duration{3: 40 * time.Millisecond, 4: 30 * time.Millisecond, 5: 20 * time.Millisecond, 6: 10 * time.Millisecond} {
		if lat[i] < want-2*time.Millisecond {
			t.Errorf("append %d took %v from its due time, want about %v", i, lat[i], want)
		}
	}
	if lat[10] > stall/2 {
		t.Errorf("the schedule never caught up: a late append took %v", lat[10])
	}
	if maxLate < 30*time.Millisecond {
		t.Errorf("generator lateness %v, want the stall's backlog", maxLate)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "http.roundtrip", StartNs: 0, EndNs: 100e6},
		{ID: 2, Parent: 1, Req: 1, Name: "server.handler", StartNs: 10e6, EndNs: 60e6},
		{ID: 3, Parent: 1, Req: 1, Name: "server.handler", StartNs: 50e6, EndNs: 80e6},
	}
	st := selfTimes(spans)
	if got := st["http.roundtrip"]; got.SelfMs != 30 || got.TotalMs != 100 || got.Count != 1 {
		t.Errorf("round trip %+v, want self 30 of 100", got)
	}
	if got := st["server.handler"]; got.SelfMs != 80 || got.Count != 2 {
		t.Errorf("handler %+v, want self 80 over 2 spans", got)
	}
}
