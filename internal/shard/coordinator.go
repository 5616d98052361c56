package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gbmqo/internal/catalog"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/obs"
	"gbmqo/internal/table"
)

// Options tunes a Coordinator. Zero values select the documented defaults.
type Options struct {
	// Shards is the number of hash shards (default 4).
	Shards int
	// Keys optionally names the hash column per table; tables absent from the
	// map are partitioned by row-index hash. Naming an unknown table or
	// column is an error at New time.
	Keys map[string]string
	// Retry is each shard's attempt budget and backoff per gather (default 2
	// attempts; backoff defaults as in fault.Policy). Retries descend the
	// engine's degradation ladder through the same fault.Policy.Do loop as
	// the request-scope retries.
	Retry fault.Policy
	// HedgeAfter, when positive, launches a hedged duplicate request against
	// any shard still running after this long; the first result wins and the
	// loser is cancelled and discarded. 0 disables hedging.
	HedgeAfter time.Duration
	// MergeReserve caps the slice of the caller's deadline held back from the
	// shard budget for the merge phase (default 100ms; at most 10% of the
	// remaining budget is reserved).
	MergeReserve time.Duration
	// Breaker configures the per-shard circuit breakers (defaults as in
	// fault.Config).
	Breaker fault.Config
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Retry.MaxAttempts <= 0 {
		o.Retry.MaxAttempts = 2
	}
	if o.MergeReserve <= 0 {
		o.MergeReserve = 100 * time.Millisecond
	}
	return o
}

// Error is the typed failure a gather returns when a shard fails and partial
// results are not allowed (or no shard survived). It names the shard so
// callers and logs can attribute the fault domain.
type Error struct {
	// Table is the base relation the gather ran over.
	Table string
	// Shard is the failing shard's index; Shards the total count.
	Shard  int
	Shards int
	// Err is the shard's final error (open breaker, exhausted retries,
	// deadline).
	Err error
}

// Error renders the attribution.
func (e *Error) Error() string {
	return fmt.Sprintf("shard: %s: shard %d/%d failed: %v", e.Table, e.Shard, e.Shards, e.Err)
}

// Unwrap exposes the cause for errors.Is/As (so classification still sees
// transient *exec.ExecError or fail-fast *fault.OpenError underneath).
func (e *Error) Unwrap() error { return e.Err }

// Coordinator owns the scatter-gather loop over a fixed set of shards built
// from one catalog snapshot. Safe for concurrent Execute calls; streaming
// appends are propagated into the partitions by NoteAppend under the write
// half of mu, so a gather always sees every shard at one consistent epoch.
type Coordinator struct {
	opts     Options
	cat      *catalog.Catalog
	shards   []Shard
	breakers *fault.Registry // one breaker per shard, named "shard-<i>"
	met      metrics
	reg      *obs.Registry // private registry backing met; exposed via Collect

	// mu guards info and the shard partition tables it describes: gathers
	// hold the read half end to end (scatter through merge), NoteAppend the
	// write half while it swaps extended partitions in.
	mu   sync.RWMutex
	info map[string]tableInfo
}

// New hash-partitions every shardable table in cat into opts.Shards
// in-process shards and returns the coordinator. The partition is a snapshot:
// tables registered or replaced afterwards are detected by catalog version at
// Route time and simply stay unsharded.
func New(cat *catalog.Catalog, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	shards, info, err := buildShards(cat, opts.Shards, opts.Keys)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	c := &Coordinator{opts: opts, cat: cat, shards: shards, info: info, met: newMetrics(reg, opts.Shards), reg: reg,
		breakers: fault.NewRegistry(opts.Breaker)}
	for i := range shards {
		c.Breaker(i) // materialized up front so BreakerStates lists every shard
	}
	return c, nil
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Name implements obs.Collector.
func (c *Coordinator) Name() string { return "shard" }

// Collect implements obs.Collector by forwarding the coordinator's private
// metric registry (gbmqo_shard_* plus the shard- and hedge-scoped retry
// series) to whoever owns the scrape endpoint.
func (c *Coordinator) Collect(ch chan<- obs.Metric) error { return c.reg.Collect(ch) }

// BreakerStates snapshots every per-shard circuit breaker (named
// "shard-<i>"), sorted by name.
func (c *Coordinator) BreakerStates() []fault.Snapshot { return c.breakers.Snapshots() }

// Breaker exposes shard i's circuit breaker (tests force shards open/closed
// through it).
func (c *Coordinator) Breaker(i int) *fault.Breaker {
	return c.breakers.Get(fmt.Sprintf("shard-%d", i))
}

// Route is the engine.ShardRouter hook: it accepts requests the sharded path
// can serve byte-identically and declines everything else (handled=false), so
// unshardable shapes transparently fall back to the unsharded engine —
// unknown or re-registered tables, ephemeral "__" derived tables, empty or
// out-of-range grouping sets, and non-mergeable aggregates (AVG does not
// decompose over shards without rewriting; the public API does not expose it,
// so declining costs nothing).
func (c *Coordinator) Route(req engine.Request) (*engine.RunResult, error, bool) {
	c.mu.RLock()
	ti, ok := c.info[req.Table]
	c.mu.RUnlock()
	if !ok || len(req.Sets) == 0 {
		return nil, nil, false
	}
	for _, s := range req.Sets {
		if s.IsEmpty() || s.Max() >= ti.rowOrd {
			return nil, nil, false
		}
	}
	if !aggsMergeable(req.Aggs) {
		return nil, nil, false
	}
	for _, aggs := range req.PerSetAggs {
		if !aggsMergeable(aggs) {
			return nil, nil, false
		}
	}
	// The authoritative epoch check happens inside Execute, under the same
	// read lock as the gather itself — checking here would race NoteAppend.
	return c.Execute(req)
}

// aggsMergeable reports whether every aggregate merges across shard partials
// and none collides with the hidden names.
func aggsMergeable(aggs []exec.Agg) bool {
	for _, a := range aggs {
		switch a.Kind {
		case exec.AggCountStar, exec.AggCount, exec.AggSum, exec.AggMin, exec.AggMax:
		default:
			return false
		}
		if a.Name == FirstAgg || a.Name == RowColumn {
			return false
		}
	}
	return true
}

// outcome is one shard's final result within a gather.
type outcome struct {
	res      *engine.RunResult
	err      error
	retries  int
	hedged   bool
	hedgeWon bool
}

// Execute scatters req over every shard, gathers the partials, and merges
// them into a result byte-identical to unsharded execution. Per-shard
// failures are retried (bounded, descending the degradation ladder) behind
// per-shard breakers; stragglers may be hedged. When a shard still fails:
// with req.AllowPartial the surviving shards are merged and the gap
// attributed in the report, otherwise the gather fails fast with *Error.
// All shard goroutines are barriered before return — nothing outlives the
// gather, and a late hedge loser is never merged.
//
// The whole gather runs under the read half of c.mu, so every shard serves
// the same append epoch and a concurrent NoteAppend can never tear a
// cross-shard read. handled=false means the partitions do not match the
// table's current catalog epoch (re-registered, or an append the coordinator
// was never told about) and the caller must fall back to unsharded execution.
func (c *Coordinator) Execute(req engine.Request) (*engine.RunResult, error, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ti, ok := c.info[req.Table]
	if !ok {
		return nil, nil, false
	}
	if ep := c.cat.Epoch(req.Table); ep.Version != ti.version || ep.Delta != ti.delta {
		return nil, nil, false
	}
	res, err := c.executeLocked(req, ti)
	return res, err, true
}

// executeLocked is the gather body; the caller holds c.mu.RLock and has
// verified ti is current.
func (c *Coordinator) executeLocked(req engine.Request, ti tableInfo) (res *engine.RunResult, err error) {
	start := time.Now()
	ctx := req.Context
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if pnc := recover(); pnc != nil {
			res, err = nil, &exec.ExecError{Step: "shard.gather", Err: exec.RecoveredPanic(pnc)}
		}
	}()
	exec.Testing.Fire("shard.scatter")
	c.met.gathers.Inc()

	sub, own := c.shardRequest(req, ti)

	// Carve the shard deadline budget out of the caller's, reserving a slice
	// for the merge so a straggler shard cannot spend the whole budget.
	shardCtx := ctx
	if dl, ok := ctx.Deadline(); ok {
		reserve := time.Until(dl) / 10
		if reserve > c.opts.MergeReserve {
			reserve = c.opts.MergeReserve
		}
		if reserve > 0 {
			var cancel context.CancelFunc
			shardCtx, cancel = context.WithDeadline(ctx, dl.Add(-reserve))
			defer cancel()
		}
	}
	gctx, gcancel := context.WithCancel(shardCtx)
	defer gcancel()

	n := len(c.shards)
	outs := make([]outcome, n)
	var inner sync.WaitGroup // primary/hedge exec goroutines (panic unwind path)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = c.safeRunShard(gctx, i, sub, &inner)
			if outs[i].err != nil && !req.AllowPartial && exec.Classify(outs[i].err) != exec.ClassCaller {
				// Fail fast: a gather that cannot serve partials has no use
				// for the remaining shards' work.
				gcancel()
			}
		}(i)
	}
	wg.Wait()
	inner.Wait()

	var failed []engine.ShardFailure
	okIdx := make([]int, 0, n)
	shardRetries, hedges, hedgeWins := 0, 0, 0
	for i := range outs {
		o := &outs[i]
		shardRetries += o.retries
		if o.hedged {
			hedges++
		}
		if o.hedgeWon {
			hedgeWins++
		}
		if o.err != nil {
			failed = append(failed, engine.ShardFailure{Shard: i, Err: o.err})
		} else {
			okIdx = append(okIdx, i)
		}
	}
	if len(failed) > 0 {
		if ctx.Err() != nil {
			// The caller left (or its deadline passed); per-shard errors are
			// downstream noise of that.
			return nil, ctx.Err()
		}
		if !req.AllowPartial || len(okIdx) == 0 {
			f := pickFailure(failed)
			return nil, &Error{Table: req.Table, Shard: f.Shard, Shards: n, Err: f.Err}
		}
	}

	exec.Testing.Fire("shard.merge")
	merged, err := c.merge(req, own, outs, okIdx)
	if err != nil {
		return nil, err
	}

	rep := foldReports(req, outs, okIdx)
	rep.Results = merged
	rep.ShardsTotal = n
	rep.ShardRetries = shardRetries
	rep.HedgesFired = hedges
	rep.HedgesWon = hedgeWins
	rep.Wall = time.Since(start)
	covered := 0
	for _, i := range okIdx {
		covered += ti.perShard[i]
	}
	rep.ShardCoverage = 1
	if ti.total > 0 {
		rep.ShardCoverage = float64(covered) / float64(ti.total)
	}
	if len(failed) > 0 {
		rep.Partial = true
		rep.ShardsFailed = failed
		c.met.partials.Inc()
	}

	first := outs[okIdx[0]].res
	return &engine.RunResult{
		Plan:        first.Plan,
		Report:      rep,
		Search:      first.Search,
		ModelUsd:    first.ModelUsd,
		PlanCostSeq: first.PlanCostSeq,
	}, nil
}

// pickFailure chooses the failure to surface: the lowest-index shard whose
// error is not caller-class (fail-fast cancellation of the other shards
// manufactures caller-class errors that would otherwise mask the real one).
func pickFailure(failed []engine.ShardFailure) engine.ShardFailure {
	for _, f := range failed {
		if exec.Classify(f.Err) != exec.ClassCaller {
			return f
		}
	}
	return failed[0]
}

// safeRunShard is one shard's bounded retry loop behind its breaker — the
// same fault.Policy.Do the engine's request-scope loop runs, here over hedged
// shard executions — with a recover barrier so an injected coordinator-side
// panic (e.g. the shard.hedge failpoint) becomes a typed transient error
// instead of killing the gather.
func (c *Coordinator) safeRunShard(ctx context.Context, i int, sub engine.Request, inner *sync.WaitGroup) (o outcome) {
	defer func() {
		if pnc := recover(); pnc != nil {
			o.res, o.err = nil, &exec.ExecError{Step: fmt.Sprintf("shard %d gather", i), Err: exec.RecoveredPanic(pnc)}
		}
	}()
	o.err = c.opts.Retry.Do(ctx, c.Breaker(i), func(attempt int) error {
		cur, _ := sub.Degrade(attempt)
		t0 := time.Now()
		res, hedged, hedgeWon, err := c.execAttempt(ctx, i, cur, inner)
		c.met.latency.Observe(time.Since(t0).Seconds())
		c.met.execs[i].Inc()
		if hedged {
			o.hedged = true
		}
		if hedgeWon {
			o.hedgeWon = true
			c.met.hedgeWins.Inc()
		}
		if err != nil {
			c.met.errors[i].Inc()
			return err
		}
		o.res = res
		return nil
	}, func(int, error, time.Duration) {
		o.retries++
		c.met.retries.Inc()
		c.met.retriesScoped.Inc()
	})
	return o
}

// execAttempt runs one attempt against shard i, optionally hedging it with a
// duplicate request after HedgeAfter. The first success wins; the loser is
// cancelled and drained before returning, so exactly one result crosses into
// the merge and no goroutine outlives the attempt.
func (c *Coordinator) execAttempt(ctx context.Context, i int, req engine.Request, inner *sync.WaitGroup) (res *engine.RunResult, hedged, hedgeWon bool, err error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type reply struct {
		res   *engine.RunResult
		err   error
		hedge bool
	}
	ch := make(chan reply, 2) // primary + at most one hedge; sends never block
	launch := func(isHedge bool) {
		inner.Add(1)
		go func() {
			defer inner.Done()
			defer func() {
				if pnc := recover(); pnc != nil {
					ch <- reply{err: &exec.ExecError{Step: fmt.Sprintf("shard %d exec", i), Err: fmt.Errorf("panic: %v", pnc)}, hedge: isHedge}
				}
			}()
			r, e := c.shards[i].Exec(actx, req)
			ch <- reply{res: r, err: e, hedge: isHedge}
		}()
	}
	launch(false)
	inflight := 1
	var timerC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		timerC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				cancel()
				for inflight > 0 { // drain the loser; its result is discarded
					<-ch
					inflight--
				}
				return r.res, hedged, r.hedge, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				return nil, hedged, false, firstErr
			}
		case <-timerC:
			timerC = nil
			exec.Testing.Fire("shard.hedge")
			hedged = true
			c.met.hedgesFired.Inc()
			c.met.retriesHedge.Inc()
			launch(true)
			inflight++
		}
	}
}

// NoteAppend propagates one streaming append into the shard partitions: the
// delta rows of newT (the snapshot the engine just registered at epoch ep)
// are routed to shards with the same hash the original build used and each
// partition is extended in place — codes copied, dictionaries shared with
// newT so group keys stay comparable across shards, the hidden RowColumn
// carrying each new row's global index so merge ordering stays byte-identical
// to unsharded execution.
//
// The swap runs under the write half of c.mu, so no gather ever sees a torn
// mix of old and new partitions. Any failure — epoch gap (an append the
// coordinator missed), a non-local shard implementation, a panic while
// extending — degrades transparently: the table's sharding record is dropped
// and queries fall back to the unsharded engine, which is always correct.
func (c *Coordinator) NoteAppend(name string, newT *table.Table, ep catalog.Epoch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ti, ok := c.info[name]
	if !ok {
		return
	}
	unshard := func() { delete(c.info, name) }
	defer func() {
		if recover() != nil {
			unshard()
		}
	}()
	if ep.Version == ti.version && ep.Delta <= ti.delta {
		return // duplicate or out-of-order note; already reflected
	}
	// Catch-up from ti.total covers multi-append gaps too: every row past the
	// partitions' total is new to them, and dictionary codes stay valid across
	// appends, so the extension below works for one delta or several at once.
	if ep.Version != ti.version || newT.NumRows() < ti.total {
		unshard()
		return
	}
	n := len(c.shards)
	locals := make([]*localShard, n)
	olds := make([]*table.Table, n)
	for i := range c.shards {
		ls, ok := c.shards[i].(*localShard)
		if !ok {
			unshard()
			return
		}
		old, ok := ls.eng.Catalog().Table(name)
		if !ok || old.NumRows() != ti.perShard[i] {
			unshard()
			return
		}
		locals[i], olds[i] = ls, old
	}

	// Route each delta row with the build's hash: by key-column code when the
	// table is key-partitioned, by global row index otherwise.
	routed := make([][]int, n)
	var keyCodes []uint32
	if ti.keyOrd >= 0 {
		keyCodes = newT.Col(ti.keyOrd).Codes()
	}
	for r := ti.total; r < newT.NumRows(); r++ {
		b := mix(uint64(r)) % uint64(n)
		if keyCodes != nil {
			b = mix(uint64(keyCodes[r])) % uint64(n)
		}
		routed[b] = append(routed[b], r)
	}

	for i := range locals {
		idx := routed[i]
		old := olds[i]
		cols := make([]*table.Column, 0, newT.NumCols()+1)
		// Rebuild each data column from newT's columns so the partition picks
		// up the extended dictionaries (fresh rank tables covering the delta
		// codes); the base segment is a plain code copy, never re-interned.
		for j := 0; j < newT.NumCols(); j++ {
			nc := newT.Col(j).EmptyLike(newT.Col(j).Name())
			nc.AppendCodes(old.Col(j).Codes())
			for _, r := range idx {
				nc.AppendCode(newT.Col(j).Code(r))
			}
			cols = append(cols, nc)
		}
		// The hidden RowColumn keeps its shard-private dictionary; new global
		// row indexes are interned under the write lock, which excludes every
		// reader of the old partition.
		nrc := old.Col(ti.rowOrd).EmptyLikeExtended(RowColumn)
		nrc.AppendCodes(old.Col(ti.rowOrd).Codes())
		for _, r := range idx {
			nrc.Append(table.Int(int64(r)))
		}
		cols = append(cols, nrc)
		p := table.FromColumns(name, cols)
		p.RowImage() // immutable + safe for concurrent gathers, as at build
		locals[i].eng.Catalog().Register(p)
		locals[i].rows[name] = p.NumRows()
		ti.perShard[i] += len(idx)
	}
	ti.total = newT.NumRows()
	ti.delta = ep.Delta
	c.info[name] = ti
	c.met.appends.Inc()
}

// metrics are the coordinator's gbmqo_shard_* series plus its scoped slices
// of gbmqo_exec_retries_total. Counter registration is idempotent per series
// name, so sharing a registry with the DB merges cleanly.
type metrics struct {
	gathers, partials, retries  *obs.Counter
	hedgesFired, hedgeWins      *obs.Counter
	retriesScoped, retriesHedge *obs.Counter
	appends                     *obs.Counter
	latency                     *obs.Histogram
	execs, errors               []*obs.Counter
}

func newMetrics(r *obs.Registry, n int) metrics {
	scopedHelp := "retried attempts by scope: request = engine retry loop, shard = per-shard gather retries, hedge = hedged duplicate shard requests"
	m := metrics{
		gathers:       r.Counter("gbmqo_shard_gathers_total", "sharded scatter-gather executions"),
		partials:      r.Counter("gbmqo_shard_partials_total", "partial results served from surviving shards (AllowPartial)"),
		retries:       r.Counter("gbmqo_shard_retries_total", "shard-scope retry attempts across all shards"),
		hedgesFired:   r.Counter("gbmqo_shard_hedges_fired_total", "hedged duplicate shard requests launched against stragglers"),
		hedgeWins:     r.Counter("gbmqo_shard_hedges_won_total", "hedged duplicates that beat the primary request"),
		retriesScoped: r.Counter(`gbmqo_exec_retries_total{scope="shard"}`, scopedHelp),
		retriesHedge:  r.Counter(`gbmqo_exec_retries_total{scope="hedge"}`, scopedHelp),
		appends:       r.Counter("gbmqo_shard_appends_total", "streaming appends propagated into shard partitions"),
		latency:       r.Histogram("gbmqo_shard_latency_seconds", "shard execution attempt latency within a gather", obs.DurationBuckets),
	}
	for i := 0; i < n; i++ {
		m.execs = append(m.execs, r.Counter(fmt.Sprintf("gbmqo_shard_exec_total{shard=\"%d\"}", i), "shard execution attempts by shard"))
		m.errors = append(m.errors, r.Counter(fmt.Sprintf("gbmqo_shard_errors_total{shard=\"%d\"}", i), "failed shard execution attempts by shard"))
	}
	return m
}
