package gbmqo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"gbmqo/internal/engine"
	"gbmqo/internal/obs"
)

// This file is where the DB's series live. Counters the DB feeds itself
// (engine runs, appends) are registered once on db.obs; what is only known at
// scrape time — the live scheduler's and shard coordinator's own registries,
// the armed breakers, the cache's counters and the durability layer — is read
// by sample functions on the same registry. README's "Metrics" section lists
// every family; TestMetricsCatalogue holds the two to each other.

// WriteMetrics writes every metric the DB tracks — scheduler, cache,
// execution governance — in Prometheus text exposition format. The same
// series back GET /metrics on the server.
func (db *DB) WriteMetrics(w io.Writer) {
	db.obs.WritePrometheus(w)
}

// Metrics snapshots every tracked series as a flat name → value map
// (histograms appear as <name>_sum and <name>_count). Like CacheStats, the
// snapshot is safe to take while queries run.
func (db *DB) Metrics() map[string]float64 {
	return db.obs.Snapshot()
}

// HealthSections returns the detailed /healthz sections: "batching" once
// the scheduler has started, "appends" once a table has seen an append,
// "breakers" while any breaker is armed, and "durability" on a durable DB.
// A section with nothing to report is absent.
func (db *DB) HealthSections() map[string]any {
	out := map[string]any{}
	if st, ok := db.BatchStats(); ok {
		out["batching"] = map[string]any{
			"submitted": st.Submitted,
			"deduped":   st.Deduped,
			"batches":   st.Batches,
			"queue_len": st.QueueLen,
			"shed":      st.Shed,
			"panics":    st.Panics,
		}
	}
	if as := db.AppendStats(); len(as) > 0 {
		// Epoch position and row count per appended table.
		ap := make(map[string]any, len(as))
		for name, st := range as {
			ap[name] = map[string]any{
				"version": st.Version,
				"delta":   st.Delta,
				"rows":    st.Rows,
			}
		}
		out["appends"] = ap
	}
	if br := db.BreakerStates(); len(br) > 0 {
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
		out["breakers"] = list
	}
	if d := db.dur; d != nil {
		out["durability"] = d.healthDetail()
	}
	return out
}

// registerMetrics registers the DB's series on db.obs. Called once from
// Open; OpenDurable adds the durability readings.
func (db *DB) registerMetrics() {
	db.observeRuns()
	db.observeAppends()
	// The statistics service's creation cost (§6.7), read from its
	// accounting; only experiments reset it, so on a DB it only grows.
	st := db.eng.Catalog().Stats()
	db.obs.Func("gbmqo_stats_built_total", "column-set statistics built or rebuilt",
		obs.KindCounter, func() float64 { return float64(st.Accounting().StatsCreated) })
	db.obs.Func("gbmqo_stats_samples_total", "table samples drawn or brought forward over appended rows",
		obs.KindCounter, func() float64 { return float64(st.Accounting().SamplesDrawn) })
	db.obs.Func("gbmqo_stats_rows_profiled_total", "rows read by statistics profiling",
		obs.KindCounter, func() float64 { return float64(st.Accounting().RowsProfiled) })
	// The scheduler and the coordinator are replaced across
	// StopBatching/StartBatching and EnableSharding, so each scrape forwards
	// whichever instance is live.
	db.obs.Sample(func(emit func(obs.Metric)) {
		db.batchMu.Lock()
		b := db.batcher
		db.batchMu.Unlock()
		if b != nil {
			b.Emit(emit)
		}
	})
	db.obs.Sample(func(emit func(obs.Metric)) {
		if co := db.shardCoordinator(); co != nil {
			co.Emit(emit)
		}
	})
	db.obs.Sample(db.emitBreakers)
	db.obs.Sample(db.emitCache)
}

// observeRuns feeds the execution-governance counters from every engine Run
// (SQL, direct and page paths alike).
func (db *DB) observeRuns() {
	r := db.obs
	runs := r.Counter("gbmqo_exec_runs_total", "engine runs that returned a result")
	errs := r.Counter("gbmqo_exec_errors_total", "engine runs that returned an error")
	cancelled := r.Counter("gbmqo_exec_cancelled_total", "engine runs stopped by context cancellation or deadline")
	rows := r.Counter("gbmqo_exec_rows_scanned_total", "input rows consumed by Group By operators")
	queries := r.Counter("gbmqo_exec_queries_total", "Group By statements executed, covered cube/rollup levels included")
	spills := r.Counter("gbmqo_exec_spill_fallbacks_total", "hash aggregations degraded to sort under MemBudget")
	degr := r.Counter("gbmqo_exec_degradations_total", "graceful-degradation decisions taken under MemBudget")
	retries := r.Counter(`gbmqo_exec_retries_total{scope="request"}`,
		"engine attempts retried with backoff after a transient failure (shard-level retries and hedges are gbmqo_shard_retries_total and gbmqo_shard_hedges_fired_total)")
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
}

// observeAppends feeds the streaming-append counters from every Append.
func (db *DB) observeAppends() {
	r := db.obs
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
}

// emitCache samples the result cache's counters, one Snapshot per scrape.
func (db *DB) emitCache(emit func(obs.Metric)) {
	rc := db.eng.ResultCache()
	if rc == nil {
		return // caching disabled; no series
	}
	s := rc.Snapshot()
	counter := func(name, help string, v int64) {
		emit(obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v)})
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
	emit(obs.Metric{Name: "gbmqo_cache_bytes", Help: "bytes resident in the cache", Kind: obs.KindGauge, Value: float64(s.Bytes)})
	emit(obs.Metric{Name: "gbmqo_cache_entries", Help: "entries resident in the cache", Kind: obs.KindGauge, Value: float64(s.Entries)})
}

// emitBreakers samples every armed circuit breaker — per-table and
// per-shard alike — as labelled gauges.
func (db *DB) emitBreakers(emit func(obs.Metric)) {
	for _, br := range db.BreakerStates() {
		gauge := func(family, help string, v float64) {
			emit(obs.Metric{Name: fmt.Sprintf("%s{name=%q}", family, br.Name), Help: help, Kind: obs.KindGauge, Value: v})
		}
		gauge("gbmqo_breaker_state", "circuit breaker state (0 closed, 1 half-open, 2 open)", breakerStateValue(br.State))
		gauge("gbmqo_breaker_failures", "failures in the breaker's sliding window", float64(br.Failures))
		gauge("gbmqo_breaker_samples", "samples in the breaker's sliding window", float64(br.Samples))
	}
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

// emit samples the WAL writer, the snapshot loop and the recovery outcome.
// OpenDurable registers it; in-memory DBs emit no durability series.
func (d *durability) emit(emit func(obs.Metric)) {
	st := d.w.Stats()
	counter := func(name, help string, v float64) {
		emit(obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Value: v})
	}
	gauge := func(name, help string, v float64) {
		emit(obs.Metric{Name: name, Help: help, Kind: obs.KindGauge, Value: v})
	}
	counter("gbmqo_wal_appends_total", "records written to the append-ahead log (abort markers included)", float64(st.Appends))
	counter("gbmqo_wal_fsyncs_total", "fsyncs issued on the active WAL segment", float64(st.Fsyncs))
	counter("gbmqo_wal_bytes_total", "bytes framed into the append-ahead log", float64(st.Bytes))
	counter("gbmqo_wal_replayed_records_total", "committed WAL records re-applied by the last recovery", float64(d.recovery.ReplayedRecords))
	counter("gbmqo_wal_truncated_tails_total", "torn or corrupt WAL tails truncated by the last recovery", float64(d.recovery.TruncatedTails))
	counter("gbmqo_snapshot_writes_total", "catalog snapshots written since open", float64(d.snapWrites.Load()))
	counter("gbmqo_snapshot_errors_total", "snapshot or manifest writes that failed", float64(d.snapErrors.Load()))
	syncFailed := 0.0
	if st.SyncErr != nil {
		syncFailed = 1.0
	}
	gauge("gbmqo_wal_sync_failed", "1 while the WAL refuses appends after a background fsync failure", syncFailed)
	gauge("gbmqo_wal_dirty_bytes", "WAL bytes written but not yet fsynced", float64(st.DirtyBytes))
	gauge("gbmqo_wal_segments", "WAL segment files on disk", float64(st.Segments))
	gauge("gbmqo_snapshot_age_seconds", "seconds since the last successful snapshot, -1 before the first", d.snapshotAge())
}

// snapshotAge reports seconds since the last snapshot this process wrote, or
// -1 when it has not written one yet (recovery-only so far).
func (d *durability) snapshotAge() float64 {
	last := d.lastSnapUnix.Load()
	if last == 0 {
		return -1
	}
	return time.Since(time.Unix(0, last)).Seconds()
}

// healthDetail is the /healthz "durability" section: fsync policy and lag,
// replay status, snapshot age.
func (d *durability) healthDetail() map[string]any {
	st := d.w.Stats()
	detail := map[string]any{
		"fsync_policy":     d.opts.Fsync,
		"wal_appends":      st.Appends,
		"wal_fsyncs":       st.Fsyncs,
		"wal_dirty_bytes":  st.DirtyBytes,
		"wal_segments":     st.Segments,
		"snapshot_writes":  d.snapWrites.Load(),
		"snapshot_errors":  d.snapErrors.Load(),
		"snapshot_age_sec": d.snapshotAge(),
		"replay": map[string]any{
			"snapshot_loaded":  d.recovery.SnapshotLoaded,
			"snapshot_wal_seq": d.recovery.SnapshotWalSeq,
			"replayed_records": d.recovery.ReplayedRecords,
			"skipped_records":  d.recovery.SkippedRecords,
			"truncated_tails":  d.recovery.TruncatedTails,
			"rewarmed_entries": d.recovery.RewarmedEntries,
			"quarantined":      d.recovery.QuarantinedEntries,
			"wall_ms":          float64(d.recovery.Wall) / float64(time.Millisecond),
		},
	}
	if st.SyncErr != nil {
		detail["fsync_error"] = st.SyncErr.Error()
	}
	// Fsync lag: how long acknowledged-but-unsynced bytes have been exposed.
	// Zero dirty bytes means no lag regardless of when the last sync ran.
	if st.DirtyBytes > 0 && !st.LastSync.IsZero() {
		detail["fsync_lag_ms"] = float64(time.Since(st.LastSync)) / float64(time.Millisecond)
	} else {
		detail["fsync_lag_ms"] = 0.0
	}
	return detail
}
