package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one entry of the benchmark's metric registry. BENCHMARK.json
// at the repo root lists the same names, units, directions and bounds; a
// self-test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end metric
	// may get worse before a change is a regression (0 for per-layer metrics).
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them: "op" is the operation the workload is named for and
// "alt" the second thing its user waits for (see README.md for the mapping).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alt_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run, named after this
// repo's packages. A workload that does not exercise a layer reports 0.
var perLayer = []metricDef{
	{Name: "stats.cold_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "core.search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.optimizer_calls", Unit: "count", Better: "lower"},
	{Name: "core.merge_evals", Unit: "count", Better: "lower"},
	{Name: "core.pruned_pairs", Unit: "count", Better: "higher"},
	{Name: "core.plan_cost_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sql.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "sql.overhead_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "engine.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.rows_scanned", Unit: "count", Better: "lower"},
	{Name: "engine.temp_tables", Unit: "count", Better: "lower"},
	{Name: "engine.work_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.wall_speedup_vs_naive", Unit: "ratio", Better: "higher"},
	{Name: "engine.merge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.peak_mem_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.kernel_ops.hash", Unit: "count", Better: "lower"},
	{Name: "engine.kernel_ops.dense", Unit: "count", Better: "lower"},
	{Name: "engine.kernel_ops.radix", Unit: "count", Better: "lower"},
	{Name: "engine.kernel_ops.sort", Unit: "count", Better: "lower"},
	{Name: "engine.kernel_ops.index", Unit: "count", Better: "lower"},
	{Name: "engine.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_mb_per_round", Unit: "MB", Better: "lower"},
	{Name: "engine.maintain_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.refreshed_per_append", Unit: "count", Better: "higher"},
	{Name: "engine.dropped_per_append", Unit: "count", Better: "lower"},
	{Name: "engine.invalidated_per_append", Unit: "count", Better: "lower"},

	{Name: "exec.hash_ns_per_row.low", Unit: "ns", Better: "lower"},
	{Name: "exec.hash_ns_per_row.mid", Unit: "ns", Better: "lower"},
	{Name: "exec.hash_ns_per_row.high", Unit: "ns", Better: "lower"},
	{Name: "exec.adaptive_ns_per_row.low.w1", Unit: "ns", Better: "lower"},
	{Name: "exec.adaptive_ns_per_row.low.w2", Unit: "ns", Better: "lower"},
	{Name: "exec.adaptive_ns_per_row.mid.w1", Unit: "ns", Better: "lower"},
	{Name: "exec.adaptive_ns_per_row.mid.w2", Unit: "ns", Better: "lower"},
	{Name: "exec.adaptive_ns_per_row.high.w1", Unit: "ns", Better: "lower"},
	{Name: "exec.adaptive_ns_per_row.high.w2", Unit: "ns", Better: "lower"},
	{Name: "exec.emit_ns_per_group", Unit: "ns", Better: "lower"},
	{Name: "exec.reagg_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.sharedscan_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "shard.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.rows_scanned", Unit: "count", Better: "lower"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.hedges_fired", Unit: "count", Better: "lower"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.ancestor_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.admissions", Unit: "count", Better: "lower"},
	{Name: "cache.rejections", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.invalidations", Unit: "count", Better: "lower"},
	{Name: "cache.refreshes", Unit: "count", Better: "higher"},
	{Name: "cache.flight_shared", Unit: "count", Better: "higher"},
	{Name: "cache.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "cache.entries", Unit: "count", Better: "higher"},
	{Name: "cache.get_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "cache.ancestors_us_p50", Unit: "us", Better: "lower"},
	{Name: "cache.offer_us_p50", Unit: "us", Better: "lower"},

	{Name: "sched.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "sched.batch_queries_mean", Unit: "count", Better: "higher"},
	{Name: "sched.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.batches", Unit: "count", Better: "lower"},
	{Name: "sched.rejected", Unit: "count", Better: "lower"},
	{Name: "sched.solo_overhead_us_p50", Unit: "us", Better: "lower"},

	{Name: "server.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.resp_kb_per_page", Unit: "kB", Better: "lower"},

	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wal.replay_ms_per_krec", Unit: "ms", Better: "lower"},
	{Name: "wal.fsyncs_per_append", Unit: "count", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},

	{Name: "snapshot.write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.load_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "snapshot.writes", Unit: "count", Better: "lower"},
	{Name: "snapshot.errors", Unit: "count", Better: "lower"},

	{Name: "durable.recover_s", Unit: "s", Better: "lower"},
	{Name: "durable.append_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "durable.replayed_records", Unit: "count", Better: "lower"},
	{Name: "durable.rewarmed_entries", Unit: "count", Better: "higher"},
	{Name: "durable.truncated_tails", Unit: "count", Better: "lower"},
	{Name: "durable.disk_bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "datagen.gen_s", Unit: "s", Better: "lower"},
	{Name: "table.append_us_p50", Unit: "us", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms_max", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_mb_end", Unit: "MB", Better: "lower"},

	{Name: "loadgen.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "loadgen.op_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.append_lateness_ms_max", Unit: "ms", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.schedule_fnv", Unit: "count", Better: "lower"},
}

// ledger collects one run's metric values by registry name, with the sample
// count behind each (0 for counts and ratios).
type ledger struct {
	vals    map[string]float64
	samples map[string]int
}

func newLedger() *ledger {
	return &ledger{vals: map[string]float64{}, samples: map[string]int{}}
}

var knownMetric = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.Name] = true
	}
	for _, d := range perLayer {
		m[d.Name] = true
	}
	return m
}()

// set records a value. A name the registry lacks is a harness bug.
func (l *ledger) set(name string, v float64) { l.setN(name, v, 0) }

func (l *ledger) setN(name string, v float64, samples int) {
	if !knownMetric[name] {
		panic("bench: metric " + name + " is not in the registry")
	}
	l.vals[name] = v
	l.samples[name] = samples
}

// opCount tallies operations attempted and failed. Each page client keeps
// its own and the workload adds them up.
type opCount struct {
	Attempted int
	Failed    int
	// Problems lists each failed operation's reason (first few only).
	Problems []string
}

func (c *opCount) fail(format string, args ...any) {
	c.Failed++
	if len(c.Problems) < 20 {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

func (c *opCount) add(o opCount) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Problems = append(c.Problems, o.Problems...)
}

// outcome is what one workload run reports.
type outcome struct {
	opCount
	Ledger *ledger
	Prov   provenance
}

// resultLine is the JSON object the driver reads from the last stdout line.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the provenance block, one "metric" line per registry entry of
// the run's kind (end-to-end when untraced, per-layer when traced), and the
// result object as the last line. An end-to-end metric that was not measured
// is an error: every workload owes every one of them.
func report(w io.Writer, o *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	prov, err := json.Marshal(o.Prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	line := resultLine{
		Correct:   o.Failed == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]outMetric{},
	}
	if traced {
		if v := o.Ledger.vals["loadgen.append_lateness_ms_max"]; v > ms(appendEvery) {
			fmt.Fprintf(w, "warning the writer started an append %.0f ms late: an earlier append stalled for longer than the gap\n", v)
		}
		if v := o.Ledger.vals["loadgen.trace_overhead_pct"]; v > 5 {
			fmt.Fprintf(w, "warning traced operations read %.1f%% slower than untraced ones in this run\n", v)
		}
		// For the reader only: what the end-to-end metrics read in this
		// (traced, hence not authoritative) run.
		for _, d := range endToEnd {
			if v, ok := o.Ledger.vals[d.Name]; ok {
				fmt.Fprintf(w, "traced-run %s %v %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, d := range defs {
		v, ok := o.Ledger.vals[d.Name]
		if !ok && !traced {
			return fmt.Errorf("bench: end-to-end metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = outMetric{Value: v, Unit: d.Unit}
		if n := o.Ledger.samples[d.Name]; n > 0 {
			fmt.Fprintf(w, "metric %s %v %s samples=%d\n", d.Name, v, d.Unit, n)
		} else {
			fmt.Fprintf(w, "metric %s %v %s\n", d.Name, v, d.Unit)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
