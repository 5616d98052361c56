package gbmqo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gbmqo/internal/engine"
	"gbmqo/internal/obs"
	"gbmqo/internal/stats"
)

// This file assembles the DB's observability from per-subsystem collectors:
// instead of one registerMetrics function threading every subsystem's
// counters through the shared registry, each subsystem (scheduler, engine,
// cache, appends, breakers, shards) implements obs.Collector and is gathered
// at scrape time. /metrics and /healthz are assembled from the registered
// set, each collector carries success+duration self-metrics, and new
// subsystems join by implementing one interface — no server changes
// required.

// Collector types re-exported from internal/obs so external subsystems can
// register their own.
type (
	// Collector is the interface a subsystem implements to surface metrics:
	// Name() identifies it, Collect(ch) sends every current sample.
	Collector = obs.Collector
	// Metric is one collected sample (full series name, help, kind, value).
	Metric = obs.Metric
	// CollectorHealth is one collector's status from the most recent gather.
	CollectorHealth = obs.CollectorHealth
)

// RegisterCollector adds a metrics collector to the DB's registry: its
// samples appear on /metrics, WriteMetrics and Metrics, and its status on
// /healthz, with per-collector success and duration self-metrics. Returns an
// error if a collector with the same name is already registered.
func (db *DB) RegisterCollector(c Collector) error { return db.obs.RegisterCollector(c) }

// CollectorHealth runs every registered collector once and reports each
// one's outcome — the /healthz "collectors" payload.
func (db *DB) CollectorHealth() []CollectorHealth { return db.obs.CheckCollectors() }

// HealthSections assembles the detailed /healthz sections from every
// registered collector that implements obs.HealthDetailer, keyed by the
// collector's section name ("batching", "appends", "breakers", …).
func (db *DB) HealthSections() map[string]any {
	out := map[string]any{}
	for _, c := range db.obs.Collectors() {
		hd, ok := c.(obs.HealthDetailer)
		if !ok {
			continue
		}
		if key, detail, include := hd.HealthDetail(); include {
			out[key] = detail
		}
	}
	return out
}

// registerMetrics builds and registers the DB's six subsystem collectors.
// Called once from Open; the scrape endpoints render the union of their
// samples plus anything registered later (DB.RegisterCollector).
func (db *DB) registerMetrics() {
	db.obs.RegisterCollector(&schedCollector{db: db})
	db.obs.RegisterCollector(newEngineCollector(db))
	db.obs.RegisterCollector(&cacheCollector{db: db})
	db.obs.RegisterCollector(newAppendsCollector(db))
	db.obs.RegisterCollector(&breakersCollector{db: db})
	db.obs.RegisterCollector(&shardCollector{db: db})
}

// schedCollector surfaces the page scheduler: it forwards the
// current batcher's private registry (the batcher is created lazily and
// replaced across StopBatching/StartBatching, so the indirection follows
// whichever instance is live) and contributes the legacy "batching" /healthz
// section.
type schedCollector struct{ db *DB }

func (s *schedCollector) Name() string { return "sched" }

func (s *schedCollector) Collect(ch chan<- obs.Metric) error {
	s.db.batchMu.Lock()
	b := s.db.batcher
	s.db.batchMu.Unlock()
	if b == nil {
		return nil // batching not started; nothing to report yet
	}
	return b.Collect(ch)
}

func (s *schedCollector) HealthDetail() (string, any, bool) {
	st, ok := s.db.BatchStats()
	if !ok {
		return "batching", nil, false
	}
	return "batching", map[string]any{
		"submitted": st.Submitted,
		"deduped":   st.Deduped,
		"batches":   st.Batches,
		"queue_len": st.QueueLen,
		"shed":      st.Shed,
		"panics":    st.Panics,
	}, true
}

// engineCollector owns the execution-governance counters: a run observer
// accumulates them from every engine Run (SQL, direct and batched paths
// alike) onto a private registry, forwarded at scrape time. The statistics
// service's creation cost (§6.7) is sampled from its accounting at scrape
// time; only experiments reset it, so on a DB the counters only grow.
type engineCollector struct {
	reg   *obs.Registry
	stats *stats.Service
}

func newEngineCollector(db *DB) *engineCollector {
	r := obs.NewRegistry()
	runs := r.Counter("gbmqo_exec_runs_total", "engine runs completed")
	errs := r.Counter("gbmqo_exec_errors_total", "engine runs that returned an error")
	cancelled := r.Counter("gbmqo_exec_cancelled_total", "engine runs stopped by context cancellation or deadline")
	rows := r.Counter("gbmqo_exec_rows_scanned_total", "input rows consumed by Group By operators")
	queries := r.Counter("gbmqo_exec_queries_total", "Group By statements executed, covered cube/rollup levels included")
	spills := r.Counter("gbmqo_exec_spill_fallbacks_total", "hash aggregations degraded to sort under MemBudget")
	degr := r.Counter("gbmqo_exec_degradations_total", "graceful-degradation decisions taken under MemBudget")
	retries := r.Counter(`gbmqo_exec_retries_total{scope="request"}`, retryHelp)
	peak := r.Gauge("gbmqo_exec_peak_mem_bytes", "high-water mark of governed execution memory over all runs")
	kernels := map[string]*obs.Counter{}
	for _, kind := range []string{"hash", "sort", "dense", "index"} {
		kernels[kind] = r.Counter(fmt.Sprintf("gbmqo_exec_kernel_total{kind=%q}", kind),
			"plan nodes executed, by physical aggregation kernel")
	}
	rehashes := r.Counter("gbmqo_exec_rehashes_avoided_total", "hash-table growth doublings skipped by NDV-based presizing")
	db.eng.SetRunObserver(func(res *engine.RunResult, err error) {
		if err != nil {
			errs.Inc()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				cancelled.Inc()
			}
		}
		if res == nil || res.Report == nil {
			return
		}
		rep := res.Report
		runs.Inc()
		rows.Add(float64(rep.RowsScanned))
		queries.Add(float64(rep.QueriesRun))
		spills.Add(float64(rep.SpillFallbacks))
		degr.Add(float64(len(rep.Degradations)))
		retries.Add(float64(len(rep.Retries)))
		peak.SetMax(float64(rep.PeakMem))
		for _, ku := range rep.Kernels {
			kind, _, _ := strings.Cut(ku.Kernel, "-") // index-stream, index-counts -> index
			if c, ok := kernels[kind]; ok {
				c.Inc()
			}
		}
		rehashes.Add(float64(rep.RehashesAvoided))
	})
	return &engineCollector{reg: r, stats: db.eng.Catalog().Stats()}
}

func (e *engineCollector) Name() string { return "engine" }

func (e *engineCollector) Collect(ch chan<- obs.Metric) error {
	acct := e.stats.Accounting()
	counter := func(name, help string, v int64) {
		ch <- obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v)}
	}
	counter("gbmqo_stats_built_total", "column-set statistics built or rebuilt", int64(acct.StatsCreated))
	counter("gbmqo_stats_samples_total", "table samples drawn or brought forward over appended rows", int64(acct.SamplesDrawn))
	counter("gbmqo_stats_rows_profiled_total", "rows read by statistics profiling", acct.RowsProfiled)
	return e.reg.Collect(ch)
}

// retryHelp is shared by every gbmqo_exec_retries_total scope so the family's
// # HELP line is identical no matter which collector renders first.
const retryHelp = "transiently failed attempts retried with backoff, by scope: request = engine retry loop, shard = per-shard gather retries, hedge = hedged duplicate shard requests"

// cacheCollector samples the result cache's own atomic counters at scrape
// time — one Snapshot per gather instead of one per series.
type cacheCollector struct{ db *DB }

func (c *cacheCollector) Name() string { return "cache" }

func (c *cacheCollector) Collect(ch chan<- obs.Metric) error {
	rc := c.db.eng.ResultCache()
	if rc == nil {
		return nil // caching disabled; no series
	}
	s := rc.Snapshot()
	counter := func(name, help string, v int64) {
		ch <- obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v)}
	}
	counter("gbmqo_cache_hits_total", "exact cross-query cache hits", s.Hits)
	counter("gbmqo_cache_ancestor_hits_total", "queries answered by re-aggregating a cached superset", s.AncestorHits)
	counter("gbmqo_cache_misses_total", "cache lookups that found nothing usable", s.Misses)
	counter("gbmqo_cache_admissions_total", "results admitted to the cache", s.Admissions)
	counter("gbmqo_cache_rejections_total", "results the admission policy declined", s.Rejections)
	counter("gbmqo_cache_evictions_total", "entries displaced by admission pressure", s.Evictions)
	counter("gbmqo_cache_invalidations_total", "entries swept on table version changes", s.Invalidations)
	counter("gbmqo_cache_flight_leads_total", "singleflight computations led", s.FlightLeads)
	counter("gbmqo_cache_flight_shared_total", "callers that piggybacked on an in-flight computation", s.FlightShared)
	counter("gbmqo_cache_corruptions_total", "cache hits whose checksum failed verification (entry evicted and quarantined)", s.Corruptions)
	ch <- obs.Metric{Name: "gbmqo_cache_bytes", Help: "bytes resident in the cache", Kind: obs.KindGauge, Value: float64(s.Bytes)}
	ch <- obs.Metric{Name: "gbmqo_cache_entries", Help: "entries resident in the cache", Kind: obs.KindGauge, Value: float64(s.Entries)}
	return nil
}

// appendsCollector owns the streaming-append counters (fed by an append
// observer onto a private registry) and the legacy "appends" /healthz
// section (per-table epoch and rows).
type appendsCollector struct {
	db  *DB
	reg *obs.Registry
}

func newAppendsCollector(db *DB) *appendsCollector {
	r := obs.NewRegistry()
	appends := r.Counter("gbmqo_appends_total", "streaming appends committed")
	appendErrs := r.Counter("gbmqo_append_errors_total", "streaming appends rejected or failed")
	appendRows := r.Counter("gbmqo_append_rows_total", "rows appended to base tables by streaming appends")
	refreshed := r.Counter("gbmqo_cache_refreshed_total", "cached entries rolled forward by delta aggregation after an append")
	lazyDropped := r.Counter("gbmqo_cache_lazy_dropped_total", "cached entries dropped at append time for lazy re-derivation from a maintained ancestor")
	refreshLat := r.Histogram("gbmqo_append_refresh_seconds", "wall time spent maintaining cached entries per append", obs.DurationBuckets)
	db.eng.SetAppendObserver(func(rep *engine.AppendReport, err error) {
		if err != nil {
			appendErrs.Inc()
			return
		}
		appends.Inc()
		appendRows.Add(float64(rep.Rows))
		refreshed.Add(float64(rep.Refreshed))
		lazyDropped.Add(float64(rep.Dropped))
		refreshLat.Observe(rep.RefreshWall.Seconds())
	})
	return &appendsCollector{db: db, reg: r}
}

func (a *appendsCollector) Name() string                       { return "appends" }
func (a *appendsCollector) Collect(ch chan<- obs.Metric) error { return a.reg.Collect(ch) }

func (a *appendsCollector) HealthDetail() (string, any, bool) {
	as := a.db.AppendStats()
	if len(as) == 0 {
		return "appends", nil, false
	}
	// Epoch position and row count per appended table.
	ap := make(map[string]any, len(as))
	for name, st := range as {
		ap[name] = map[string]any{
			"version": st.Version,
			"delta":   st.Delta,
			"rows":    st.Rows,
		}
	}
	return "appends", ap, true
}

// breakersCollector snapshots every armed circuit breaker — per-table and
// per-shard alike — as labeled gauges, and carries the legacy "breakers"
// /healthz list.
type breakersCollector struct{ db *DB }

func (b *breakersCollector) Name() string { return "breakers" }

func (b *breakersCollector) Collect(ch chan<- obs.Metric) error {
	for _, br := range b.db.BreakerStates() {
		ch <- obs.Metric{
			Name: fmt.Sprintf("gbmqo_breaker_state{name=%q}", br.Name),
			Help: "circuit breaker state (0 closed, 1 half-open, 2 open)",
			Kind: obs.KindGauge, Value: breakerStateValue(br.State),
		}
		ch <- obs.Metric{
			Name: fmt.Sprintf("gbmqo_breaker_failures{name=%q}", br.Name),
			Help: "failures in the breaker's sliding window",
			Kind: obs.KindGauge, Value: float64(br.Failures),
		}
		ch <- obs.Metric{
			Name: fmt.Sprintf("gbmqo_breaker_samples{name=%q}", br.Name),
			Help: "samples in the breaker's sliding window",
			Kind: obs.KindGauge, Value: float64(br.Samples),
		}
	}
	return nil
}

func breakerStateValue(s BreakerState) float64 {
	switch s {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	default:
		return 0
	}
}

func (b *breakersCollector) HealthDetail() (string, any, bool) {
	br := b.db.BreakerStates()
	if len(br) == 0 {
		return "breakers", nil, false
	}
	list := make([]map[string]any, len(br))
	for i, s := range br {
		e := map[string]any{
			"table":    s.Name,
			"state":    s.State.String(),
			"failures": s.Failures,
			"samples":  s.Samples,
		}
		if s.RetryAfter > 0 {
			e["retry_after_ms"] = float64(s.RetryAfter) / float64(time.Millisecond)
		}
		if s.LastFailure != "" {
			e["last_failure"] = s.LastFailure
		}
		list[i] = e
	}
	return "breakers", list, true
}

// shardCollector forwards the scatter-gather coordinator's registry while
// sharding is enabled. Disabled, it still emits the shard- and hedge-scoped
// retry series at zero so the gbmqo_exec_retries_total family always renders
// all three scopes (the request scope lives on the engine collector).
type shardCollector struct{ db *DB }

func (s *shardCollector) Name() string { return "shard" }

func (s *shardCollector) Collect(ch chan<- obs.Metric) error {
	if co := s.db.shardCoordinator(); co != nil {
		return co.Collect(ch)
	}
	for _, scope := range []string{"shard", "hedge"} {
		ch <- obs.Metric{
			Name: fmt.Sprintf("gbmqo_exec_retries_total{scope=%q}", scope),
			Help: retryHelp, Kind: obs.KindCounter,
		}
	}
	return nil
}
