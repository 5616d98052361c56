// Package sched admits pages of Group By requests and runs each page's
// misses as one GB-MQO plan. A page — the queries one caller asks together,
// such as one /query body — is served validate → probe → admit → run on the
// caller's goroutine: the queries are validated, the probe (the root package
// probes the result cache) answers what it can, the remaining misses are
// admitted against the in-flight bound, and they go to the engine at once as
// one RunFunc call, inheriting its shared scans, result cache, governance
// and parallelism. The page's queries are the batch the optimizer shares
// work across; there is no waiting window and no merging across callers —
// the result cache's singleflight is the only dedup between concurrent
// callers.
//
// Deadlines: a page runs under its caller's context. When that context
// ends mid-run, the run stops at its next checkpoint (one row block) and
// every query it had not answered gets the context's error; a run that
// completed still delivers its answers.
//
// Identity: a request's result table is cell-for-cell identical to what a
// solo run of the same query produces — grouping-set results keep
// first-appearance row order through shared intermediates (see DESIGN.md
// "Page admission"). Identical queries within a page share one result. A
// run asks each set under one aggregate list: a set's second and later
// lists run as follow-up runs, so every result already is its request's
// answer.
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/obs"
	"gbmqo/internal/table"
)

// RunFunc executes one (possibly multi-query) run: all sets over one base
// table, each set with its own aggregate list. The scheduler calls it once
// per page, plus once per follow-up run for a set asked under several lists;
// the root package wires it to engine.Run with the DB's execution options.
type RunFunc func(ctx context.Context, tableName string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error)

// ProbeFunc answers a page of requests over one table without a run where it
// can — in the root package, from the result cache (see engine.Engine.Probe).
// It returns one engine.Probed per request, or nil when it answers none; a
// nil Table means it cannot answer that request, which then runs. Its Origin
// attributes the answer.
type ProbeFunc func(ctx context.Context, qs []Query) ([]engine.Probed, error)

// Query is one resolved Group By request: grouping ordinals on the base
// table plus its own aggregate list (never empty; COUNT(*) is explicit).
type Query struct {
	Table string
	Set   colset.Set
	Aggs  []exec.Agg
}

// BatchInfo tells a caller how its request was served. A request the probe
// answered reports BatchQueries and BatchRequests 1, QueueWait 0, no plan
// costs, and Origin OriginCacheHit or OriginCacheAncestor.
type BatchInfo struct {
	// BatchQueries is the number of distinct queries in the page's run (1 =
	// effectively solo, or answered by the probe).
	BatchQueries int
	// BatchRequests is the number of the page's requests the run answers,
	// duplicates included (1 for a probe answer).
	BatchRequests int
	// Deduped reports that an identical (set, aggregates) request came
	// earlier in the page; this request shared its computation.
	Deduped bool
	// QueueWait is the time from admission to the start of the page's run
	// (0 for a probe answer).
	QueueWait time.Duration
	// Origin attributes the result (computed, cache hit, cache ancestor,
	// shared flight) — engine.ExecReport.Origins surfaced per request, or the
	// probe's origin for a probe answer.
	Origin engine.SetOrigin
	// PlanCostShared is the model cost of the plan that served this request;
	// PlanCostSolo is the model cost of answering every query of the run
	// individually from the base relation (the optimizer's naive reference).
	// Their ratio is the modeled benefit of asking the queries together.
	PlanCostShared float64
	PlanCostSolo   float64
	// Partial reports that the run went sharded with AllowPartial and lost
	// ShardsFailed shards; the result covers only the surviving shards (see
	// engine.ExecReport.Partial).
	Partial      bool
	ShardsFailed int
}

// Config tunes a Batcher. Zero values select the documented defaults.
type Config struct {
	// MaxQueue bounds the queries in flight — admitted and not yet run to
	// completion — across all pages; beyond it a request fails fast with an
	// *OverloadError (default 4096).
	MaxQueue int
	// ShedLatencyTarget enables adaptive load shedding: when the recent p95
	// run latency exceeds this target, the effective bound shrinks
	// proportionally (MaxQueue·target/p95, floored at 1), so a slow backend
	// sheds load early instead of building a backlog it can never clear in
	// time. Rejections carry an *OverloadError with a Retry-After hint. 0
	// disables shedding — only the hard MaxQueue bound applies.
	ShedLatencyTarget time.Duration
}

// Scheduler errors.
var (
	// ErrClosed: the batcher has been closed.
	ErrClosed = errors.New("sched: batcher closed")
	// ErrQueueFull: Config.MaxQueue queries are already in flight.
	ErrQueueFull = errors.New("sched: submission queue full")
	// ErrDraining: the batcher is draining for shutdown; runs in flight
	// complete, new submissions are rejected.
	ErrDraining = errors.New("sched: batcher draining")
	// ErrBatchAborted: the run answering this submission panicked outside the
	// engine's recovery boundary; the scheduler contained it and every
	// request of the page received this error instead of hanging.
	ErrBatchAborted = errors.New("sched: batch aborted by panic")
)

// OverloadError is the admission rejection Submit returns when the in-flight
// bound is reached or load shedding is active. It matches ErrQueueFull under
// errors.Is, and carries what a front-end needs to answer 429 with a
// Retry-After.
type OverloadError struct {
	// QueueLen is the number of queries in flight at rejection; Limit is the
	// bound it hit — Config.MaxQueue, or the shrunken adaptive bound when
	// shedding.
	QueueLen, Limit int
	// P95 is the recent p95 run latency that drove an adaptive rejection (0
	// when the hard bound was hit before any run completed).
	P95 time.Duration
	// RetryAfter estimates when admission is likely to succeed: about one
	// run's worth of time, at least a millisecond.
	RetryAfter time.Duration
}

// Error renders the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("sched: overloaded (queue %d ≥ limit %d, p95 %v); retry in %v",
		e.QueueLen, e.Limit, e.P95, e.RetryAfter)
}

// Is makes every OverloadError match ErrQueueFull, so existing callers'
// errors.Is(err, ErrQueueFull) checks keep working.
func (e *OverloadError) Is(target error) bool { return target == ErrQueueFull }

// Batcher admits pages and runs their misses.
type Batcher struct {
	cfg   Config
	run   RunFunc
	probe ProbeFunc
	met   *metrics
	reg   *obs.Registry // private registry backing met; exposed via Emit

	mu       sync.Mutex
	closed   bool
	draining bool
	inFlight int
	wg       sync.WaitGroup // runs in flight

	// Recent run latencies, for the adaptive shedding bound: a fixed ring
	// under its own mutex, with the derived p95 published through an atomic
	// so admission never contends with latency bookkeeping.
	latMu  sync.Mutex
	lat    [64]time.Duration
	latIdx int
	p95ns  atomic.Int64
}

// New creates a Batcher executing runs through run. probe, when given (at
// most one), is offered every page before its requests are admitted (see
// SubmitPage); without it every request runs.
func New(run RunFunc, cfg Config, probe ...ProbeFunc) *Batcher {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4096
	}
	reg := obs.NewRegistry()
	b := &Batcher{cfg: cfg, run: run, met: newMetrics(reg), reg: reg}
	if len(probe) > 0 {
		b.probe = probe[0]
	}
	return b
}

// Emit sends the batcher's series to emit, so whoever owns the scrape
// endpoint forwards them from a sample function instead of threading a
// shared registry into the scheduler.
func (b *Batcher) Emit(emit func(obs.Metric)) { b.reg.Emit(emit) }

// group is one distinct (set, aggregate-signature) query of a page and the
// page positions that asked it, in page order.
type group struct {
	set  colset.Set
	aggs []exec.Agg
	at   []int
}

// Answer is one request's outcome: its result table and how it was served,
// or the error that refused or failed it.
type Answer struct {
	Table *table.Table
	Info  BatchInfo
	Err   error
}

// Submit is SubmitPage for a page of one.
func (b *Batcher) Submit(ctx context.Context, q Query) (*table.Table, BatchInfo, error) {
	a := b.SubmitPage(ctx, []Query{q})[0]
	return a.Table, a.Info, a.Err
}

// SubmitPage answers a page of requests over one table, one Answer per
// request in page order, and blocks until every one is answered or ctx
// expires. A request that fails validation, or names another table than the
// page's first valid request, gets its error and nothing else; the rest of
// the page is served in one pass:
//
//   - one shutdown check;
//   - one probe call for the whole page, which answers what it can at once:
//     those answers count as submissions and never against MaxQueue;
//   - one admission under the scheduler lock for every remaining request
//     (none, and no lock, when the probe answered them all); a request the
//     in-flight bound turns away gets an *OverloadError;
//   - one run of the admitted requests on the caller's goroutine, started at
//     once: identical queries share one result, and the distinct ones form
//     one GB-MQO plan (a set asked under several aggregate lists adds one
//     follow-up run per extra list).
//
// Each returned table is cell-for-cell identical to a solo run of the same
// query. A probe that panics or fails with anything but the caller's own
// context error costs latency, not answers: its requests run as if there
// were no probe. The run executes under ctx; when ctx ends mid-run, the run
// stops at its next checkpoint and its requests answer ctx's error. A nil
// ctx means context.Background().
func (b *Batcher) SubmitPage(ctx context.Context, qs []Query) []Answer {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Answer, len(qs))
	tbl, live := "", 0
	for i, q := range qs {
		err := validate(q)
		switch {
		case err != nil:
		case tbl == "":
			tbl = q.Table
		case q.Table != tbl:
			err = fmt.Errorf("sched: page mixes tables %q and %q", tbl, q.Table)
		}
		if out[i].Err = err; err == nil {
			live++
		}
	}
	if live == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		return failLive(out, err)
	}
	b.mu.Lock()
	err := b.shutLocked()
	b.mu.Unlock()
	if err != nil {
		return failLive(out, err)
	}
	if b.probe != nil {
		answered, err := b.probePage(ctx, qs, live, out)
		if err != nil {
			return failLive(out, err)
		}
		if answered == live {
			return out
		}
	}
	admitted := time.Now()
	groups, requests := b.admit(qs, out)
	if requests > 0 {
		b.runPage(ctx, tbl, groups, requests, admitted, out)
	}
	return out
}

// failLive answers err to every request of the page that has no answer yet.
func failLive(out []Answer, err error) []Answer {
	for i := range out {
		if out[i].Table == nil && out[i].Err == nil {
			out[i].Err = err
		}
	}
	return out
}

// probePage offers the page's live requests (those without an answer in
// out, live of them) to the probe, files its answers into out and returns
// how many it answered. Its error is the caller's own context error when
// that ended the probe — the page then returns without a run — and nil
// otherwise, whether the probe answered, declined, failed or panicked. It
// contains its own panics.
func (b *Batcher) probePage(ctx context.Context, qs []Query, live int, out []Answer) (answered int, err error) {
	asked, at := qs, []int(nil)
	if live < len(qs) {
		asked, at = make([]Query, 0, live), make([]int, 0, live)
		for i, q := range qs {
			if out[i].Err == nil {
				asked, at = append(asked, q), append(at, i)
			}
		}
	}
	answers := func() (probed []engine.Probed) {
		defer func() {
			if recover() != nil {
				probed = nil
			}
		}()
		exec.Testing.Fire("sched.probe")
		probed, err := b.probe(ctx, asked)
		if err != nil || len(probed) != len(asked) {
			return nil
		}
		return probed
	}()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for j, p := range answers {
		if p.Table == nil {
			continue
		}
		i := j
		if at != nil {
			i = at[j]
		}
		b.met.submissions.Inc()
		b.met.probeAnswers.Inc()
		out[i] = Answer{Table: p.Table, Info: BatchInfo{BatchQueries: 1, BatchRequests: 1, Origin: p.Origin}}
		answered++
	}
	return answered, nil
}

// shutLocked reports why the batcher admits no submission (ErrClosed,
// ErrDraining), or nil. Callers hold b.mu.
func (b *Batcher) shutLocked() error {
	if b.closed {
		return ErrClosed
	}
	if b.draining {
		return ErrDraining
	}
	return nil
}

func validate(q Query) error {
	if q.Table == "" {
		return errors.New("sched: empty table name")
	}
	if q.Set.IsEmpty() {
		return errors.New("sched: empty grouping set")
	}
	if len(q.Aggs) == 0 {
		return errors.New("sched: empty aggregate list")
	}
	seen := map[string]bool{}
	for _, a := range q.Aggs {
		if a.Name == "" {
			return errors.New("sched: aggregate with empty output name")
		}
		if seen[a.Name] {
			return fmt.Errorf("sched: duplicate aggregate output name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// admit admits every request of the page that has no answer yet under one
// acquisition of b.mu, counting it in flight, and groups the admitted ones
// into distinct queries in page order. It returns the groups and how many
// requests they hold; a request the shutdown check or the in-flight bound
// turns away gets its error in out instead. When it admits any, the run is
// registered with the drain wait group.
func (b *Batcher) admit(qs []Query, out []Answer) ([]*group, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.shutLocked(); err != nil {
		failLive(out, err)
		return nil, 0
	}
	var groups []*group
	byKey, requests := map[string]*group{}, 0
	for i, q := range qs {
		if out[i].Table != nil || out[i].Err != nil {
			continue
		}
		limit, p95 := b.admitLimit()
		if b.inFlight >= limit {
			b.met.rejected.Inc()
			if limit < b.cfg.MaxQueue {
				b.met.shed.Inc()
			}
			out[i].Err = &OverloadError{QueueLen: b.inFlight, Limit: limit, P95: p95, RetryAfter: max(p95, time.Millisecond)}
			continue
		}
		b.inFlight++
		requests++
		b.met.submissions.Inc()
		key := groupKey(q.Set, q.Aggs)
		g := byKey[key]
		if g == nil {
			g = &group{set: q.Set, aggs: q.Aggs}
			byKey[key] = g
			groups = append(groups, g)
		} else {
			b.met.dedup.Inc()
		}
		g.at = append(g.at, i)
	}
	if requests > 0 {
		b.met.queueLen.Set(float64(b.inFlight))
		b.wg.Add(1)
	}
	return groups, requests
}

// groupKey is the page-local dedup key: grouping set plus an order-sensitive
// aggregate signature (kind, source, output name — COUNT(*) normalizes its
// source away, mirroring the result cache's keying).
func groupKey(set colset.Set, aggs []exec.Agg) string {
	sig := make([]byte, 0, 16+len(aggs)*12)
	sig = append(sig, set.String()...)
	for _, a := range aggs {
		sig = a.AppendSig(append(sig, '|'))
	}
	return string(sig)
}

// admitLimit computes the effective in-flight bound: MaxQueue, shrunk
// proportionally when shedding is enabled and the recent p95 run latency
// exceeds the target, floored at 1 so a page can always make progress.
// Callers hold b.mu.
func (b *Batcher) admitLimit() (int, time.Duration) {
	p95 := time.Duration(b.p95ns.Load())
	limit := b.cfg.MaxQueue
	if target := b.cfg.ShedLatencyTarget; target > 0 && p95 > target {
		limit = max(int(int64(b.cfg.MaxQueue)*int64(target)/int64(p95)), 1)
	}
	return limit, p95
}

// observeLatency folds one run's execution time into the shedding ring
// and republishes the p95.
func (b *Batcher) observeLatency(d time.Duration) {
	b.met.execLatency.Observe(d.Seconds())
	b.latMu.Lock()
	b.lat[b.latIdx%len(b.lat)] = d
	b.latIdx++
	n := min(b.latIdx, len(b.lat))
	tmp := slices.Clone(b.lat[:n])
	slices.Sort(tmp)
	p95 := tmp[min(n*95/100, n-1)]
	b.latMu.Unlock()
	b.p95ns.Store(int64(p95))
	b.met.p95.Set(p95.Seconds())
}

// runPage runs the page's admitted groups (requests of them, duplicates
// included) on the caller's goroutine under ctx and files the answers into
// out. Each run asks a set under one aggregate list: the first run carries
// every set's first list in page order, and a set's later lists run as
// follow-ups (see rounds). A panic anywhere below is contained: every
// request of the page answers ErrBatchAborted.
func (b *Batcher) runPage(ctx context.Context, tbl string, groups []*group, requests int, admitted time.Time, out []Answer) {
	start := time.Now()
	info := BatchInfo{BatchQueries: len(groups), BatchRequests: requests, QueueWait: start.Sub(admitted)}
	b.met.batches.Inc()
	b.met.batchQueries.Observe(float64(len(groups)))
	b.met.batchRequests.Add(float64(requests))
	b.met.queueWait.Observe(info.QueueWait.Seconds())
	defer func() {
		pnc := recover()
		b.observeLatency(time.Since(start))
		b.mu.Lock()
		b.inFlight -= requests
		b.met.queueLen.Set(float64(b.inFlight))
		b.mu.Unlock()
		b.wg.Done()
		if pnc == nil {
			return
		}
		b.met.panics.Inc()
		b.met.errors.Inc()
		err := fmt.Errorf("%w: %v", ErrBatchAborted, pnc)
		for _, g := range groups {
			for _, i := range g.at {
				out[i] = Answer{Err: err, Info: info}
			}
		}
	}()
	exec.Testing.Fire("sched.run")

	runs := rounds(groups)
	b.met.followUps.Add(float64(len(runs) - 1))
	for _, run := range runs {
		sets := make([]colset.Set, len(run))
		perSet := make(map[colset.Set][]exec.Agg, len(run))
		for i, g := range run {
			sets[i], perSet[g.set] = g.set, g.aggs
		}
		res, err := b.run(ctx, tbl, sets, perSet)
		b.scatter(ctx, info, run, res, err, out)
	}
}

// rounds splits the page's groups into runs that ask each set once: run k
// carries the k-th distinct aggregate list of every set that has one, in
// page order.
func rounds(groups []*group) [][]*group {
	var runs [][]*group
	lists := make(map[colset.Set]int, len(groups))
	for _, g := range groups {
		k := lists[g.set]
		lists[g.set] = k + 1
		if k == len(runs) {
			runs = append(runs, nil)
		}
		runs[k] = append(runs[k], g)
	}
	return runs
}

// Close stops admissions, waits for the runs in flight, and rejects
// further submissions.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wg.Wait()
}

// Drain is graceful shutdown under a deadline: stop admissions (submissions
// get ErrDraining) and wait for the runs in flight until ctx expires.
// Returns nil when every run finished, or ctx's error when the deadline cut
// the wait short — those runs then finish on their callers' goroutines and
// answer them. After Drain the batcher is closed either way. A nil
// ctx waits without a deadline.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.draining = true
	b.met.draining.Set(1)
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	var err error
	if ctx == nil {
		<-done
	} else {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return err
}

// Draining reports whether Drain has begun (the /healthz "draining" state).
func (b *Batcher) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// Stats is a point-in-time snapshot of scheduler activity (tests and the
// CLI; the full series live in the obs registry). Submitted counts every
// admitted submission, ProbeAnswers the ones the probe answered without a
// run, Batches the page runs, FollowUps the extra runs for sets asked under
// several aggregate lists, Abandoned the submissions that answered their
// context's error after their run began, and QueueLen the queries in flight.
type Stats struct {
	Submitted    int64
	ProbeAnswers int64
	Deduped      int64
	Batches      int64
	Rejected     int64
	Shed         int64
	Panics       int64
	FollowUps    int64
	Abandoned    int64
	QueueLen     int
	Draining     bool
}

// Stats snapshots the scheduler counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	inFlight, draining := b.inFlight, b.draining
	b.mu.Unlock()
	return Stats{
		Submitted:    int64(b.met.submissions.Value()),
		ProbeAnswers: int64(b.met.probeAnswers.Value()),
		Deduped:      int64(b.met.dedup.Value()),
		Batches:      int64(b.met.batches.Value()),
		Rejected:     int64(b.met.rejected.Value()),
		Shed:         int64(b.met.shed.Value()),
		Panics:       int64(b.met.panics.Value()),
		FollowUps:    int64(b.met.followUps.Value()),
		Abandoned:    int64(b.met.abandoned.Value()),
		QueueLen:     inFlight,
		Draining:     draining,
	}
}

// scatter files one run's outcome into out at every page position of the
// given groups. A run that failed after ctx ended answers ctx's error, and
// its requests count as abandoned.
func (b *Batcher) scatter(ctx context.Context, info BatchInfo, groups []*group, res *engine.RunResult, err error, out []Answer) {
	if err != nil {
		b.met.errors.Inc()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			for _, g := range groups {
				b.met.abandoned.Add(float64(len(g.at)))
			}
		}
	}
	if res != nil {
		info.PlanCostShared = res.PlanCostSeq
		info.PlanCostSolo = res.Search.NaiveCost
		if info.PlanCostSolo == 0 {
			info.PlanCostSolo = res.PlanCostSeq
		}
		if res.Report != nil {
			info.Partial = res.Report.Partial
			info.ShardsFailed = len(res.Report.ShardsFailed)
		}
		b.met.costShared.Add(res.PlanCostSeq)
		b.met.costSolo.Add(info.PlanCostSolo)
	}
	for _, g := range groups {
		a := Answer{Info: info, Err: err}
		if err == nil {
			a.Table, a.Info.Origin = res.Report.Results[g.set], res.Report.Origins[g.set]
			if a.Table == nil {
				a.Err = fmt.Errorf("sched: run produced no result for %s", g.set)
			}
		}
		for k, i := range g.at {
			out[i] = a
			out[i].Info.Deduped = k > 0
		}
	}
}
