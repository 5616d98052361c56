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
	followUps     *obs.Counter
	batches       *obs.Counter
	batchRequests *obs.Counter
	abandoned     *obs.Counter
	errors        *obs.Counter
	costShared    *obs.Counter
	costSolo      *obs.Counter
	shed          *obs.Counter
	panics        *obs.Counter
	batchQueries  *obs.Histogram
	queueWait     *obs.Histogram
	execLatency   *obs.Histogram
	queueLen      *obs.Gauge
	p95           *obs.Gauge
	draining      *obs.Gauge
}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{
		submissions: r.Counter("gbmqo_sched_submissions_total",
			"Group By requests admitted by the scheduler, probe answers included"),
		probeAnswers: r.Counter("gbmqo_sched_probe_answers_total",
			"submissions the probe answered without a run"),
		dedup: r.Counter("gbmqo_sched_dedup_total",
			"submissions answered by an identical query earlier in their page"),
		rejected: r.Counter("gbmqo_sched_rejected_total",
			"submissions rejected because the in-flight bound was reached"),
		followUps: r.Counter("gbmqo_sched_follow_up_runs_total",
			"runs beyond a page's first, one per extra aggregate list of a set"),
		batches: r.Counter("gbmqo_sched_batches_total",
			"pages that ran, one per page however many runs it took"),
		batchRequests: r.Counter("gbmqo_sched_batched_requests_total",
			"submissions answered by page runs, duplicates included"),
		abandoned: r.Counter("gbmqo_sched_abandoned_total",
			"submissions that answered their context's error because it ended during their run"),
		errors: r.Counter("gbmqo_sched_batch_errors_total",
			"page and follow-up runs that returned an error, pages aborted by a panic included"),
		costShared: r.Counter("gbmqo_sched_plan_cost_shared_total",
			"modeled cost of the shared page plans executed"),
		costSolo: r.Counter("gbmqo_sched_plan_cost_solo_total",
			"modeled cost of answering the same queries individually from base"),
		shed: r.Counter("gbmqo_sched_shed_total",
			"submissions rejected by adaptive load shedding (p95 latency over target)"),
		panics: r.Counter("gbmqo_sched_batch_panics_total",
			"pages aborted by a recovered panic"),
		batchQueries: r.Histogram("gbmqo_sched_batch_queries",
			"distinct queries per page that ran", obs.SizeBuckets),
		queueWait: r.Histogram("gbmqo_sched_queue_wait_seconds",
			"admission-to-run latency, once per page that ran", obs.DurationBuckets),
		execLatency: r.Histogram("gbmqo_sched_batch_exec_seconds",
			"execution time per page that ran, follow-up runs included", obs.DurationBuckets),
		queueLen: r.Gauge("gbmqo_sched_queue_len",
			"queries in flight: admitted and not yet run to completion"),
		p95: r.Gauge("gbmqo_sched_p95_batch_seconds",
			"p95 execution time of the last 64 pages that ran, driving the shedding bound"),
		draining: r.Gauge("gbmqo_sched_draining",
			"1 while the batcher is draining for shutdown"),
	}
	return m
}
