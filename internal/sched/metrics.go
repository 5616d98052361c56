package sched

import "gbmqo/internal/obs"

// metrics are the scheduler's observable counters, registered on the shared
// obs registry so the server's /metrics endpoint and the CLI's -metrics dump
// see the same series.
type metrics struct {
	submissions   *obs.Counter
	probeAnswers  *obs.Counter
	dedup         *obs.Counter
	rejected      *obs.Counter
	conflicts     *obs.Counter
	batches       *obs.Counter
	batchRequests *obs.Counter
	abandoned     *obs.Counter
	errors        *obs.Counter
	costShared    *obs.Counter
	costSolo      *obs.Counter
	closeFull     *obs.Counter
	closeDeadline *obs.Counter
	closeIdle     *obs.Counter
	closeFlush    *obs.Counter
	shed          *obs.Counter
	panics        *obs.Counter
	batchQueries  *obs.Histogram
	occupancy     *obs.Histogram
	queueWait     *obs.Histogram
	execLatency   *obs.Histogram
	queueLen      *obs.Gauge
	openWindows   *obs.Gauge
	p95           *obs.Gauge
	draining      *obs.Gauge
}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{
		submissions: r.Counter("gbmqo_sched_submissions_total",
			"Group By requests submitted to the micro-batching scheduler"),
		probeAnswers: r.Counter("gbmqo_sched_probe_answers_total",
			"submissions the probe answered before they entered a window"),
		dedup: r.Counter("gbmqo_sched_dedup_total",
			"submissions answered by an identical query already in the window"),
		rejected: r.Counter("gbmqo_sched_rejected_total",
			"submissions rejected because the queue was full"),
		conflicts: r.Counter("gbmqo_sched_agg_conflicts_total",
			"window groups run solo because their aggregate names conflicted with the merged batch"),
		batches: r.Counter("gbmqo_sched_batches_total",
			"windows dispatched"),
		batchRequests: r.Counter("gbmqo_sched_batched_requests_total",
			"submissions dispatched inside batches, duplicates included"),
		abandoned: r.Counter("gbmqo_sched_abandoned_total",
			"submissions whose context expired before their batch delivered"),
		errors: r.Counter("gbmqo_sched_batch_errors_total",
			"batch executions that returned an error"),
		costShared: r.Counter("gbmqo_sched_plan_cost_shared_total",
			"modeled cost of the shared batch plans executed"),
		costSolo: r.Counter("gbmqo_sched_plan_cost_solo_total",
			"modeled cost of answering the same queries individually from base"),
		closeFull: r.Counter(`gbmqo_sched_window_close_total{reason="full"}`,
			"windows closed, by reason"),
		closeDeadline: r.Counter(`gbmqo_sched_window_close_total{reason="deadline"}`,
			"windows closed, by reason"),
		closeIdle: r.Counter(`gbmqo_sched_window_close_total{reason="idle"}`,
			"windows closed, by reason"),
		closeFlush: r.Counter(`gbmqo_sched_window_close_total{reason="flush"}`,
			"windows closed, by reason"),
		shed: r.Counter("gbmqo_sched_shed_total",
			"submissions rejected by adaptive load shedding (p95 latency over target)"),
		panics: r.Counter("gbmqo_sched_batch_panics_total",
			"batch dispatches aborted by a recovered panic"),
		batchQueries: r.Histogram("gbmqo_sched_batch_queries",
			"distinct queries per dispatched window", obs.SizeBuckets),
		occupancy: r.Histogram("gbmqo_sched_window_occupancy",
			"distinct queries at window close as a fraction of MaxBatch",
			[]float64{0.0625, 0.125, 0.25, 0.5, 0.75, 1}),
		queueWait: r.Histogram("gbmqo_sched_queue_wait_seconds",
			"submission-to-dispatch latency", obs.DurationBuckets),
		execLatency: r.Histogram("gbmqo_sched_batch_exec_seconds",
			"batch dispatch-to-delivery execution time", obs.DurationBuckets),
		queueLen: r.Gauge("gbmqo_sched_queue_len",
			"submissions waiting in open windows"),
		openWindows: r.Gauge("gbmqo_sched_open_windows",
			"currently open windows"),
		p95: r.Gauge("gbmqo_sched_p95_batch_seconds",
			"recent p95 batch execution latency driving the shedding bound"),
		draining: r.Gauge("gbmqo_sched_draining",
			"1 while the batcher is draining for shutdown"),
	}
	// Histogram-derived p95 over the whole run, next to the ring-derived
	// gbmqo_sched_p95_batch_seconds that drives shedding (which sees only the
	// most recent 64 batches).
	r.Func("gbmqo_sched_batch_exec_p95_seconds",
		"p95 batch execution latency estimated from the full latency histogram",
		obs.KindGauge, func() float64 { return m.execLatency.Quantile(0.95) })
	return m
}

func (m *metrics) closeReason(reason string) *obs.Counter {
	switch reason {
	case "full":
		return m.closeFull
	case "deadline":
		return m.closeDeadline
	case "idle":
		return m.closeIdle
	default:
		return m.closeFlush
	}
}
