package gbmqo

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/fault"
	"gbmqo/internal/sched"
	"gbmqo/internal/sql"
	"gbmqo/internal/table"
)

// This file is the online entry point: instead of handing the optimizer a
// complete query set up front (ExecuteQueries), concurrent callers Submit
// individual Group By requests and an adaptive micro-batching scheduler
// groups near-simultaneous arrivals on the same table into one GB-MQO plan.
// See DESIGN.md "Online micro-batching" and internal/sched.

// Batching and per-request types re-exported from the scheduler.
type (
	// BatchInfo tells a Submit caller how its request was served (batch size,
	// dedup, queueing latency, result origin, modeled shared-vs-solo cost).
	BatchInfo = sched.BatchInfo
	// BatchStats is a point-in-time snapshot of scheduler activity.
	BatchStats = sched.Stats
	// SetOrigin attributes a grouping set's result to how it was produced.
	SetOrigin = engine.SetOrigin
	// OverloadError is the typed rejection adaptive load shedding returns:
	// queue state, the recent p95 batch latency that shrank the admission
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
	// ErrQueueFull: the scheduler's admission queue is at MaxQueue (or the
	// tighter adaptive limit; see OverloadError for the detailed form).
	ErrQueueFull = sched.ErrQueueFull
	// ErrDraining: the scheduler is draining for shutdown; in-flight batches
	// still deliver but new submissions are refused.
	ErrDraining = sched.ErrDraining
	// ErrBatchAborted: the submission's batch was aborted by a recovered
	// panic in the dispatch path.
	ErrBatchAborted = sched.ErrBatchAborted
)

// BatchOptions tunes the micro-batching scheduler (see DB.StartBatching).
// Zero values select the scheduler defaults (MaxBatch 16, MaxWait 2ms,
// IdleWait MaxWait/4, MaxQueue 4096).
type BatchOptions struct {
	// MaxBatch closes a window once it holds this many distinct queries.
	MaxBatch int
	// MaxWait closes a window this long after it opened — the ceiling on the
	// queueing latency a request can pay to ride a batch.
	MaxWait time.Duration
	// IdleWait closes a window early when no new request arrived for this
	// long.
	IdleWait time.Duration
	// MaxQueue bounds submissions waiting in open windows; beyond it Submit
	// fails fast with ErrQueueFull.
	MaxQueue int
	// ShedLatencyTarget enables adaptive load shedding: when the recent p95
	// batch execution latency exceeds this target, the admission limit shrinks
	// proportionally below MaxQueue and excess submissions fail fast with an
	// *OverloadError carrying a RetryAfter hint. 0 disables shedding (only
	// the hard MaxQueue bound applies).
	ShedLatencyTarget time.Duration
	// Exec are the query options batch runs execute under (strategy, shared
	// scan, parallelism, memory budget, cache bypass). Exec.Context is
	// ignored: a batch runs under its own context, cancelled only when every
	// subscriber has abandoned it.
	Exec QueryOptions
}

// StartBatching starts the micro-batching scheduler with explicit options.
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
		MaxBatch:          o.MaxBatch,
		MaxWait:           o.MaxWait,
		IdleWait:          o.IdleWait,
		MaxQueue:          o.MaxQueue,
		ShedLatencyTarget: o.ShedLatencyTarget,
	}, db.probeBatch)
}

// StopBatching flushes open windows, waits for in-flight batches, and stops
// the scheduler. Submissions racing with it fail with ErrBatcherClosed. A
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

// FlushBatches closes all open windows immediately without stopping the
// scheduler (tests and graceful drains).
func (db *DB) FlushBatches() {
	db.batchMu.Lock()
	b := db.batcher
	db.batchMu.Unlock()
	if b != nil {
		b.Flush()
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
// shared scans and parallel sub-plans on, because batches exist to amortize
// scans across queries, and bounded retry on, because a batch failure fans
// out to every subscriber.
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

// batchRequest is the engine request a window runs — and the probe looks
// up — under the batcher's execution options.
func (db *DB) batchRequest(ctx context.Context, tableName string, sets []colset.Set, perSet map[colset.Set][]Agg) engine.Request {
	db.batchMu.Lock()
	req := db.batchOpts.Exec.request()
	db.batchMu.Unlock()
	req.Table, req.Sets, req.PerSetAggs, req.Context = tableName, sets, perSet, ctx
	return req
}

// runBatch executes one dispatched window through the engine: one GB-MQO
// plan over the union of the window's grouping sets, inheriting the DB's
// cache, governance and parallelism settings.
func (db *DB) runBatch(ctx context.Context, tableName string, sets []colset.Set, perSet map[colset.Set][]Agg) (*engine.RunResult, error) {
	return db.eng.Run(db.batchRequest(ctx, tableName, sets, perSet))
}

// probeBatch answers one submission from the result cache before it may
// enter a window: an exact hit or an ancestor re-aggregation, under the same
// request a window would run (see engine.Engine.Probe).
func (db *DB) probeBatch(ctx context.Context, q sched.Query) (*table.Table, SetOrigin, error) {
	sets := []colset.Set{q.Set}
	return db.eng.Probe(db.batchRequest(ctx, q.Table, sets, map[colset.Set][]Agg{q.Set: q.Aggs}), q.Set)
}

// Drain gracefully shuts down the micro-batching scheduler: new submissions
// fail fast (ErrDraining, then ErrBatcherClosed), open windows flush
// immediately, and Drain blocks until every in-flight batch has delivered or
// ctx expires (returning ctx's error; batches keep draining in the
// background). The drained batcher stays registered so later Submits get
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
// micro-batching scheduler under ctx's deadline (see Drain) and, on a durable
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

// Submit hands one Group By request to the micro-batching scheduler and
// blocks until its result is ready, ctx expires, or the scheduler rejects
// it. Requests arriving close together on the same table share one GB-MQO
// plan; identical requests (same grouping columns and aggregates) inside a
// window share one computation. The result table is byte-identical to what
// ExecuteQueries would return for the same single query. A request the
// result cache can answer (an exact hit or a cached-ancestor roll-up) is
// answered before any window, with BatchInfo.QueueWait 0; see
// engine.Engine.Probe for when that probe steps aside.
//
// ctx bounds only this caller's wait: when it expires the call returns
// ctx.Err() but the batch keeps running for its other subscribers (and is
// cancelled once all of them have abandoned it). q.Cols must be non-empty —
// grand totals have no grouping columns to share and go through Query.
// Submit starts the scheduler with default BatchOptions if StartBatching was
// not called.
func (db *DB) Submit(ctx context.Context, tableName string, q GroupQuery) (*Table, BatchInfo, error) {
	t, ok := db.eng.Catalog().Table(tableName)
	if !ok {
		return nil, BatchInfo{}, fmt.Errorf("gbmqo: unknown table %q", tableName)
	}
	ords, err := db.resolveCols(t, q.Cols)
	if err != nil {
		return nil, BatchInfo{}, err
	}
	aggs := q.Aggs
	if len(aggs) == 0 {
		aggs = []Agg{CountStar()}
	}
	return db.getBatcher().Submit(ctx, sched.Query{Table: t.Name(), Set: colset.Of(ords...), Aggs: aggs})
}

// SubmitSQL runs a SQL statement through the micro-batching scheduler: a
// batchable grouped single-table statement is decomposed into its grouping
// sets, each submitted individually (so concurrent statements' sets batch
// together), and the GROUPING SETS union result is reassembled
// byte-identical to Query. Statements the scheduler cannot batch — joins,
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
	b := db.getBatcher()
	results := make(map[colset.Set]*table.Table, len(spec.Sets))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for _, s := range spec.Sets {
		wg.Add(1)
		go func(s colset.Set) {
			defer wg.Done()
			res, _, err := b.Submit(ctx, sched.Query{Table: spec.Table, Set: s, Aggs: spec.Aggs})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			results[s] = res
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sql.Assemble(src, spec, results)
}

// WriteMetrics writes every metric the DB tracks — scheduler, cache,
// execution governance — in Prometheus text exposition format. The same
// series back GET /metrics on the server and expvar under the "gbmqo" key.
func (db *DB) WriteMetrics(w io.Writer) {
	db.obs.WritePrometheus(w)
}

// Metrics snapshots every tracked series as a flat name → value map
// (histograms appear as <name>_sum and <name>_count). Like CacheStats, the
// snapshot is safe to take while queries run.
func (db *DB) Metrics() map[string]float64 {
	return db.obs.Snapshot()
}
