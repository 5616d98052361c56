package gbmqo

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/fault"
	"gbmqo/internal/sched"
	"gbmqo/internal/sql"
	"gbmqo/internal/table"
)

// This file is the online entry point: callers hand the scheduler a page of
// Group By requests over one table (SubmitPage; Submit is a page of one).
// The result cache answers what it can, and the page's misses run at once as
// one GB-MQO plan. See DESIGN.md "Page admission" and internal/sched.

// Batching and per-request types re-exported from the scheduler.
type (
	// BatchInfo tells a Submit caller how its request was served (run size,
	// dedup, wait before the run, result origin, modeled shared-vs-solo cost).
	BatchInfo = sched.BatchInfo
	// PageAnswer is one query's answer from SubmitPage: its result Table and
	// BatchInfo, or the Err that refused or failed it.
	PageAnswer = sched.Answer
	// BatchStats is a point-in-time snapshot of scheduler activity.
	BatchStats = sched.Stats
	// SetOrigin attributes a grouping set's result to how it was produced.
	SetOrigin = engine.SetOrigin
	// OverloadError is the typed rejection adaptive load shedding returns:
	// queries in flight, the recent p95 run latency that shrank the admission
	// limit, and a RetryAfter hint for clients. Matches ErrQueueFull under
	// errors.Is.
	OverloadError = sched.OverloadError
	// BreakerConfig tunes per-table circuit breakers (see DB.EnableBreakers).
	// The zero value selects defaults.
	BreakerConfig = fault.Config
	// BreakerSnapshot is one table breaker's observable state (see
	// DB.BreakerStates and GET /healthz).
	BreakerSnapshot = fault.Snapshot
	// BreakerState enumerates circuit-breaker states.
	BreakerState = fault.State
	// BreakerOpenError is the fail-fast rejection an open breaker returns,
	// carrying a RetryAfter hint.
	BreakerOpenError = fault.OpenError
)

// Circuit-breaker states.
const (
	// BreakerClosed: requests flow normally.
	BreakerClosed = fault.StateClosed
	// BreakerOpen: requests fail fast with *BreakerOpenError.
	BreakerOpen = fault.StateOpen
	// BreakerHalfOpen: one probe request is allowed through.
	BreakerHalfOpen = fault.StateHalfOpen
)

// Result origins (BatchInfo.Origin, ExecReport.Origins).
const (
	// OriginComputed: executed by this run's plan.
	OriginComputed = engine.OriginComputed
	// OriginCacheHit: served verbatim from the cross-query result cache.
	OriginCacheHit = engine.OriginCacheHit
	// OriginCacheAncestor: re-aggregated from a cached superset grouping.
	OriginCacheAncestor = engine.OriginCacheAncestor
	// OriginFlightShared: piggybacked on a concurrent identical computation.
	OriginFlightShared = engine.OriginFlightShared
)

// Batching errors.
var (
	// ErrBatcherClosed: Submit after StopBatching (or during shutdown).
	ErrBatcherClosed = sched.ErrClosed
	// ErrQueueFull: the scheduler has MaxQueue queries in flight (or the
	// tighter adaptive limit; see OverloadError for the detailed form).
	ErrQueueFull = sched.ErrQueueFull
	// ErrDraining: the scheduler is draining for shutdown; runs in flight
	// still deliver but new submissions are refused.
	ErrDraining = sched.ErrDraining
	// ErrBatchAborted: the submission's page run was aborted by a recovered
	// panic in the scheduler.
	ErrBatchAborted = sched.ErrBatchAborted
)

// BatchOptions tunes the page scheduler (see DB.StartBatching). Zero values
// select the scheduler defaults (MaxQueue 4096, no shedding).
type BatchOptions struct {
	// MaxQueue bounds the queries in flight; beyond it Submit fails fast
	// with ErrQueueFull.
	MaxQueue int
	// ShedLatencyTarget enables adaptive load shedding: when the recent p95
	// run latency exceeds this target, the admission limit shrinks
	// proportionally below MaxQueue and excess submissions fail fast with an
	// *OverloadError carrying a RetryAfter hint. 0 disables shedding (only
	// the hard MaxQueue bound applies).
	ShedLatencyTarget time.Duration
	// Exec are the query options page runs execute under (strategy, shared
	// scan, parallelism, memory budget, cache bypass). Exec.Context is
	// ignored: a page runs under its caller's context.
	Exec QueryOptions
}

// StartBatching starts the page scheduler with explicit options.
// It is a no-op if batching is already running (the first configuration
// wins); use StopBatching first to reconfigure. Submit starts batching
// lazily with defaults, so calling StartBatching is only needed to override
// them.
func (db *DB) StartBatching(o BatchOptions) {
	db.batchMu.Lock()
	defer db.batchMu.Unlock()
	if db.batcher != nil {
		return
	}
	db.batchOpts = o
	db.batcher = sched.New(db.runBatch, sched.Config{
		MaxQueue:          o.MaxQueue,
		ShedLatencyTarget: o.ShedLatencyTarget,
	}, db.probeBatch)
}

// StopBatching waits for the runs in flight and stops the scheduler. Submissions racing with it fail with ErrBatcherClosed. A
// later Submit or StartBatching starts a fresh scheduler.
func (db *DB) StopBatching() {
	db.batchMu.Lock()
	b := db.batcher
	db.batcher = nil
	db.batchMu.Unlock()
	if b != nil {
		b.Close()
	}
}

// BatchStats snapshots scheduler activity. ok is false when batching has
// never been started.
func (db *DB) BatchStats() (st BatchStats, ok bool) {
	db.batchMu.Lock()
	b := db.batcher
	db.batchMu.Unlock()
	if b == nil {
		return BatchStats{}, false
	}
	return b.Stats(), true
}

// batcherDefaults are the execution options a lazily started scheduler uses:
// shared scans and parallel sub-plans on, because a page's run exists to
// amortize scans across its queries, and bounded retry on, because a run's
// failure fans out to every query of the page.
func batcherDefaults() BatchOptions {
	return BatchOptions{Exec: QueryOptions{SharedScan: true, Parallel: true, MaxAttempts: 3}}
}

// getBatcher returns the running scheduler, starting one with defaults on
// first use.
func (db *DB) getBatcher() *sched.Batcher {
	db.batchMu.Lock()
	defer db.batchMu.Unlock()
	if db.batcher == nil {
		db.batchOpts = batcherDefaults()
		db.batcher = sched.New(db.runBatch, sched.Config{}, db.probeBatch)
	}
	return db.batcher
}

// batchRequest is the engine request a page runs — and the probe looks up —
// under the batcher's execution options.
func (db *DB) batchRequest(ctx context.Context, tableName string, sets []colset.Set, perSet map[colset.Set][]Agg) engine.Request {
	db.batchMu.Lock()
	req := db.batchOpts.Exec.request()
	db.batchMu.Unlock()
	req.Table, req.Sets, req.PerSetAggs, req.Context = tableName, sets, perSet, ctx
	return req
}

// runBatch executes one page's misses through the engine: one GB-MQO plan
// over the union of their grouping sets, inheriting the DB's cache,
// governance and parallelism settings.
func (db *DB) runBatch(ctx context.Context, tableName string, sets []colset.Set, perSet map[colset.Set][]Agg) (*engine.RunResult, error) {
	return db.eng.Run(db.batchRequest(ctx, tableName, sets, perSet))
}

// probeBatch answers a page of submissions from the result cache before they
// run: exact hits and ancestor re-aggregations, under the same request the
// page would run, in one probe pass (see engine.Engine.Probe).
func (db *DB) probeBatch(ctx context.Context, qs []sched.Query) ([]engine.Probed, error) {
	asked := make([]engine.SetQuery, len(qs))
	for i, q := range qs {
		asked[i] = engine.SetQuery{Set: q.Set, Aggs: q.Aggs}
	}
	return db.eng.Probe(db.batchRequest(ctx, qs[0].Table, nil, nil), asked)
}

// Drain gracefully shuts down the page scheduler: new submissions fail fast
// (ErrDraining, then ErrBatcherClosed), and Drain blocks until every run in
// flight has delivered or ctx expires (returning ctx's error; the runs keep
// going in the background). The drained batcher stays registered so later Submits get
// ErrBatcherClosed instead of silently starting a fresh scheduler — use
// StopBatching + StartBatching to serve again. Drain is a no-op when
// batching never started.
func (db *DB) Drain(ctx context.Context) error {
	db.batchMu.Lock()
	b := db.batcher
	db.batchMu.Unlock()
	if b == nil {
		return nil
	}
	return b.Drain(ctx)
}

// Draining reports whether a Drain or Close is in progress (or finished):
// health endpoints surface this so load balancers stop routing before the
// listener goes away.
func (db *DB) Draining() bool {
	db.batchMu.Lock()
	b := db.batcher
	db.batchMu.Unlock()
	return b != nil && b.Draining()
}

// Close gracefully shuts the DB down for process exit: it drains the
// page scheduler under ctx's deadline (see Drain) and, on a durable
// DB, takes a final snapshot and sync-closes the WAL so the next OpenDurable
// replays nothing. Queries through Query/Execute still work after Close —
// only the batching entry points (and durable appends) are stopped.
//
// Close is idempotent and safe to call concurrently with in-flight Appends:
// repeated or racing Close calls all observe the first call's outcome, an
// Append that wins the race against the durability shutdown is fully logged
// and snapshotted, and one that loses fails with ErrDBClosed rather than
// landing half-applied.
func (db *DB) Close(ctx context.Context) error {
	err := db.Drain(ctx)
	if db.dur != nil {
		if derr := db.dur.close(db); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// EnableBreakers arms a per-table circuit breaker in front of every engine
// run (Query, Execute, Submit alike): once a table's recent failure rate
// crosses cfg's threshold the breaker opens and requests against that table
// fail fast with *BreakerOpenError until a timed probe succeeds. Caller
// cancellations are never counted as failures. A zero cfg selects defaults.
func (db *DB) EnableBreakers(cfg BreakerConfig) { db.eng.EnableBreakers(cfg) }

// DisableBreakers removes circuit breaking (and forgets breaker history).
func (db *DB) DisableBreakers() { db.eng.DisableBreakers() }

// BreakerStates snapshots every armed breaker — per-table ones (see
// EnableBreakers) and, when sharding is enabled, the per-shard ones guarding
// each fault domain (named "shard-<i>") — sorted by name. Empty when neither
// layer is armed.
func (db *DB) BreakerStates() []BreakerSnapshot {
	out := db.eng.BreakerStates()
	if co := db.shardCoordinator(); co != nil {
		out = append(out, co.BreakerStates()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Submit hands one Group By request to the page scheduler and blocks until
// its result is ready, ctx expires, or the scheduler rejects it: SubmitPage
// for a page of one. The result table is byte-identical to what
// ExecuteQueries would return for the same single query. A request the
// result cache can answer (an exact hit or a cached-ancestor roll-up) is
// answered without a run, with BatchInfo.QueueWait 0; see
// engine.Engine.Probe for when that probe steps aside. Concurrent identical
// requests share one computation through the cache's singleflight.
//
// The run executes on the caller's goroutine under ctx: when ctx ends
// mid-run the call returns ctx.Err() at the run's next checkpoint, one row
// block, as Execute does. q.Cols must be non-empty — grand totals
// have no grouping columns to share and go through Query. Submit starts the
// scheduler with default BatchOptions if StartBatching was not called.
func (db *DB) Submit(ctx context.Context, tableName string, q GroupQuery) (*Table, BatchInfo, error) {
	a := db.SubmitPage(ctx, tableName, []GroupQuery{q})[0]
	return a.Table, a.Info, a.Err
}

// SubmitPage hands a page of Group By requests over one table — the set a
// /query body carries — to the page scheduler in one call and returns one
// answer per query, in page order. Each answer is what Submit would return
// for that query alone, but the page is served in one pass: one probe of the
// result cache answers every hit and ancestor roll-up, and the misses run at
// once as one GB-MQO plan, identical queries computed once. A query whose
// columns do not resolve answers its own error and does not hold up the
// others. ctx governs the whole page, run included (see Submit).
func (db *DB) SubmitPage(ctx context.Context, tableName string, qs []GroupQuery) []PageAnswer {
	t, ok := db.eng.Catalog().Table(tableName)
	if !ok {
		out := make([]PageAnswer, len(qs))
		for i := range out {
			out[i].Err = fmt.Errorf("gbmqo: unknown table %q", tableName)
		}
		return out
	}
	page := make([]sched.Query, len(qs))
	var errs []error
	for i, q := range qs {
		ords, err := db.resolveCols(t, q.Cols)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(qs))
			}
			errs[i] = err // page[i] stays empty: the scheduler skips it
			continue
		}
		aggs := q.Aggs
		if len(aggs) == 0 {
			aggs = []Agg{CountStar()}
		}
		page[i] = sched.Query{Table: t.Name(), Set: colset.Of(ords...), Aggs: aggs}
	}
	out := db.getBatcher().SubmitPage(ctx, page)
	for i, err := range errs {
		if err != nil {
			out[i] = PageAnswer{Err: err}
		}
	}
	return out
}

// SubmitSQL runs a SQL statement through the page scheduler: a batchable
// grouped single-table statement is decomposed into its grouping sets,
// submitted as one page (so one plan computes them), and the GROUPING SETS
// union result is reassembled byte-identical to Query. Statements the scheduler cannot batch — joins,
// WHERE filters, plain selects — fall back to a solo QueryWith run under the
// batcher's execution options.
func (db *DB) SubmitSQL(ctx context.Context, statement string) (*Table, error) {
	q, err := sql.Parse(statement)
	if err != nil {
		return nil, err
	}
	spec, ok, err := sql.Decompose(db.eng, q)
	if err != nil {
		return nil, err
	}
	if !ok {
		db.batchMu.Lock()
		o := db.batchOpts.Exec
		db.batchMu.Unlock()
		o.Context = ctx
		res, err := db.QueryWith(statement, o)
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	}
	src, found := db.eng.Catalog().Table(spec.Table)
	if !found {
		return nil, fmt.Errorf("gbmqo: unknown table %q", spec.Table)
	}
	page := make([]sched.Query, len(spec.Sets))
	for i, s := range spec.Sets {
		page[i] = sched.Query{Table: spec.Table, Set: s, Aggs: spec.Aggs}
	}
	results := make(map[colset.Set]*table.Table, len(spec.Sets))
	for i, a := range db.getBatcher().SubmitPage(ctx, page) {
		if a.Err != nil {
			return nil, a.Err
		}
		results[page[i].Set] = a.Table
	}
	return sql.Assemble(src, spec, results)
}
