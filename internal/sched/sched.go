// Package sched is the online micro-batching scheduler that makes the GB-MQO
// optimizer reachable from a concurrent server: individual Group By requests
// arrive independently, are grouped by base table into a short-lived window,
// deduplicated by (grouping set, aggregate signature), and executed as ONE
// multi-query plan through the engine — inheriting its shared scans, result
// cache, governance and parallelism — before each caller's slice of the batch
// is scattered back to it. A request the batcher's probe can answer (the root
// package probes the result cache) returns before any window: a cached
// result leaves nothing to share.
//
// Window policy: a window opens on the first arrival for a table and closes
// on whichever comes first — it reaches Config.MaxBatch distinct queries
// ("full"), its Config.MaxWait deadline from open expires ("deadline"), or no
// new request arrives for Config.IdleWait ("idle" — an idle line does not
// make the first caller wait out the whole deadline). Close dispatches the
// batch on its own goroutine; the next arrival opens a fresh window, so a
// slow batch never blocks admission.
//
// Fairness and deadlines: requests carry their own contexts. A request whose
// context expires before its batch completes gets its context error
// immediately — the batch keeps running for the other subscribers, and only
// when every subscriber of a batch has abandoned it is the batch's own
// context cancelled (no orphaned work, no collateral cancellation). Results
// are delivered in arrival (submission sequence) order within a batch.
//
// Identity: batching is transparent. A request's result table is
// cell-for-cell identical to what a solo run of the same query produces —
// grouping-set results keep first-appearance row order through shared
// intermediates (see DESIGN.md "Online micro-batching"), and requests that
// were merged with others' aggregates are projected back to exactly their
// own columns.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/obs"
	"gbmqo/internal/table"
)

// RunFunc executes one (possibly multi-query) batch: all sets over one base
// table, with per-set aggregates. The scheduler calls it once per window
// (plus once per aggregate-conflict straggler); the root package wires it to
// engine.Run with the DB's execution options.
type RunFunc func(ctx context.Context, tableName string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error)

// ProbeFunc answers a page of requests over one table without a window where
// it can — in the root package, from the result cache (see
// engine.Engine.Probe). It returns one engine.Probed per request, or nil
// when it answers none; a nil Table means it cannot answer that request,
// which then enters a window. Its Origin attributes the answer.
type ProbeFunc func(ctx context.Context, qs []Query) ([]engine.Probed, error)

// Query is one resolved Group By request: grouping ordinals on the base
// table plus its own aggregate list (never empty; COUNT(*) is explicit).
type Query struct {
	Table string
	Set   colset.Set
	Aggs  []exec.Agg
}

// BatchInfo tells a caller how its request was served. A request the probe
// answered at Submit rode no window: it reports BatchQueries and
// BatchRequests 1, QueueWait 0, no plan costs, and Origin OriginCacheHit or
// OriginCacheAncestor.
type BatchInfo struct {
	// BatchQueries is the number of distinct queries in the window the
	// request rode (1 = effectively solo, or answered by the probe).
	BatchQueries int
	// BatchRequests is the total number of submissions in the window,
	// duplicates included (1 for a probe answer).
	BatchRequests int
	// Deduped reports that an identical (set, aggregates) request was already
	// in the window; this request shared its computation.
	Deduped bool
	// QueueWait is the time from submission to batch dispatch (0 for a probe
	// answer).
	QueueWait time.Duration
	// Origin attributes the result (computed, cache hit, cache ancestor,
	// shared flight) — engine.ExecReport.Origins surfaced per request, or the
	// probe's origin for a probe answer.
	Origin engine.SetOrigin
	// PlanCostShared is the model cost of the batch plan that served this
	// request; PlanCostSolo is the model cost of answering every query in the
	// batch individually from the base relation (the optimizer's naive
	// reference). Their ratio is the modeled benefit of batching.
	PlanCostShared float64
	PlanCostSolo   float64
	// Partial reports that the batch ran sharded with AllowPartial and lost
	// ShardsFailed shards; the result covers only the surviving shards (see
	// engine.ExecReport.Partial).
	Partial      bool
	ShardsFailed int
}

// Config tunes a Batcher. Zero values select the documented defaults.
type Config struct {
	// MaxBatch closes a window once it holds this many distinct queries
	// (default 16).
	MaxBatch int
	// MaxWait closes a window this long after it opened (default 2ms) — the
	// ceiling on queueing latency a request can pay to batching.
	MaxWait time.Duration
	// IdleWait closes a window when no request arrived for this long
	// (default MaxWait/4): an idle line does not make early arrivals wait out
	// the full deadline.
	IdleWait time.Duration
	// MaxQueue bounds submissions waiting in open windows across all tables;
	// beyond it Submit fails fast with ErrQueueFull (default 4096).
	MaxQueue int
	// ShedLatencyTarget enables adaptive load shedding: when the recent p95
	// batch execution latency exceeds this target, the effective queue bound
	// shrinks proportionally (MaxQueue·target/p95, floored at MaxBatch), so a
	// slow backend sheds load early instead of building a queue it can never
	// drain in time. Rejections carry an *OverloadError with a Retry-After
	// hint. 0 disables shedding — only the hard MaxQueue bound applies.
	ShedLatencyTarget time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.IdleWait <= 0 {
		c.IdleWait = c.MaxWait / 4
		if c.IdleWait <= 0 {
			c.IdleWait = c.MaxWait
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
	return c
}

// Scheduler errors.
var (
	// ErrClosed: the batcher has been closed.
	ErrClosed = errors.New("sched: batcher closed")
	// ErrQueueFull: Config.MaxQueue submissions are already waiting.
	ErrQueueFull = errors.New("sched: submission queue full")
	// ErrDraining: the batcher is draining for shutdown; in-flight batches
	// complete, new submissions are rejected.
	ErrDraining = errors.New("sched: batcher draining")
	// ErrBatchAborted: the batch executing this submission panicked outside
	// the engine's recovery boundary; the scheduler contained it and every
	// subscriber received this error instead of hanging.
	ErrBatchAborted = errors.New("sched: batch aborted by panic")
)

// OverloadError is the admission rejection Submit returns when the queue is
// full or load shedding is active. It matches ErrQueueFull under errors.Is,
// and carries what a front-end needs to answer 429 with a Retry-After.
type OverloadError struct {
	// QueueLen is the queue depth at rejection; Limit is the bound it hit —
	// Config.MaxQueue, or the shrunken adaptive bound when shedding.
	QueueLen, Limit int
	// P95 is the recent p95 batch execution latency that drove an adaptive
	// rejection (0 when the hard bound was hit before any batch completed).
	P95 time.Duration
	// RetryAfter estimates when admission is likely to succeed: about one
	// batch's worth of drain time.
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

// Batcher implements the micro-batching scheduler.
type Batcher struct {
	cfg   Config
	run   RunFunc
	probe ProbeFunc
	met   *metrics
	reg   *obs.Registry // private registry backing met; exposed via Collect

	mu       sync.Mutex
	closed   bool
	draining bool
	windows  map[string]*window
	queued   int
	seq      uint64
	wg       sync.WaitGroup

	// Recent batch execution latencies, for the adaptive shedding bound: a
	// fixed ring under its own mutex, with the derived p95 published through
	// an atomic so enqueue never contends with latency bookkeeping.
	latMu  sync.Mutex
	lat    [64]time.Duration
	latIdx int
	p95ns  atomic.Int64
}

// New creates a Batcher executing batches through run. probe, when given (at
// most one), is offered every submission before it may enter a window (see
// Submit); without it every submission waits for a window.
func New(run RunFunc, cfg Config, probe ...ProbeFunc) *Batcher {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	b := &Batcher{
		cfg:     cfg,
		run:     run,
		met:     newMetrics(reg),
		reg:     reg,
		windows: map[string]*window{},
	}
	if len(probe) > 0 {
		b.probe = probe[0]
	}
	return b
}

// Name implements obs.Collector.
func (b *Batcher) Name() string { return "sched" }

// Collect implements obs.Collector by forwarding the batcher's private
// metric registry, so whoever owns the scrape endpoint registers the batcher
// once instead of threading a shared registry into the scheduler.
func (b *Batcher) Collect(ch chan<- obs.Metric) error { return b.reg.Collect(ch) }

// group is one distinct (set, aggregate-signature) query within a window and
// its subscribers.
type group struct {
	set  colset.Set
	aggs []exec.Agg
	subs []*pending
}

// window collects concurrent arrivals for one base table.
type window struct {
	table    string
	opened   time.Time
	groups   map[string]*group
	order    []*group // arrival order
	npending int
	deadline *time.Timer
	idle     *time.Timer
}

// pending is one submitted request waiting for its batch.
type pending struct {
	set  colset.Set
	aggs []exec.Agg
	seq  uint64
	enq  time.Time
	dup  bool
	ch   chan Answer // buffered: scatter never blocks

	// abandoned is set when the submitter's context expired; dropped guards
	// the single live-count decrement against the submitter/dispatcher race.
	abandoned atomic.Bool
	dropped   atomic.Bool
	disp      atomic.Pointer[dispatch]
}

// Answer is one request's outcome: its result table and how it was served,
// or the error that refused or failed it.
type Answer struct {
	Table *table.Table
	Info  BatchInfo
	Err   error
}

// dispatch is one in-flight batch execution: its cancelable context and the
// count of subscribers still listening. When the count reaches zero the
// batch's context is cancelled — work is never orphaned, and one impatient
// caller never cancels the others.
type dispatch struct {
	ctx    context.Context
	cancel context.CancelFunc
	live   atomic.Int64
}

func (d *dispatch) drop() {
	if d.live.Add(-1) == 0 {
		d.cancel()
	}
}

// abandon records that the submitter stopped listening; safe against racing
// with dispatch assignment (whichever side sees both conditions decrements,
// exactly once).
func (p *pending) abandon() {
	p.abandoned.Store(true)
	p.maybeDrop()
}

func (p *pending) maybeDrop() {
	if p.abandoned.Load() && p.disp.Load() != nil && p.dropped.CompareAndSwap(false, true) {
		p.disp.Load().drop()
	}
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
// the page is served in one pass on the caller's goroutine:
//
//   - one shutdown check;
//   - one probe call for the whole page, which answers what it can at once:
//     those answers count as submissions and never against MaxQueue;
//   - one acquisition of the scheduler lock that enqueues every remaining
//     request (none, and no lock, when the probe answered them all), so the
//     page's misses share a window — and one GB-MQO plan — unless the
//     window fills (MaxBatch) or the queue bound turns some away;
//   - one wait on the enqueued requests.
//
// Each returned table is cell-for-cell identical to a solo run of the same
// query. A probe that panics or fails with anything but the caller's own
// context error costs latency, not answers: its requests enter a window as
// if there were no probe. When ctx expires, every request still waiting
// abandons its batch and answers ctx's error. A nil ctx means
// context.Background().
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
	pend := b.enqueue(qs, out)
	b.await(ctx, pend, out)
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
// that ended the probe — the page then returns without a window — and nil
// otherwise, whether the probe answered, declined, failed or panicked. It
// runs on the submitter's goroutine, outside dispatch's recover, so it
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

// await collects the enqueued requests' answers in page order. Once ctx
// expires, every request still waiting abandons its batch; an answer that
// raced in before the abandonment is still preferred, so a deadline that
// fires at delivery time returns the answer.
func (b *Batcher) await(ctx context.Context, pend []*pending, out []Answer) {
	for i, p := range pend {
		if p == nil {
			continue
		}
		select {
		case out[i] = <-p.ch:
			continue
		case <-ctx.Done():
		}
		p.abandon()
		b.met.abandoned.Inc()
		select {
		case out[i] = <-p.ch:
		default:
			out[i].Err = ctx.Err()
		}
	}
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

// enqueue files every request of the page that has no answer yet into its
// table's open window (opening one if needed) under one acquisition of b.mu,
// deduplicating identical queries, and closes the window early when it
// fills. It returns the page's pendings by position (nil where out already
// holds an answer); a request the shutdown check or the admission bound
// turns away gets its error in out instead.
func (b *Batcher) enqueue(qs []Query, out []Answer) []*pending {
	pend := make([]*pending, len(qs))
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.shutLocked(); err != nil {
		failLive(out, err)
		return pend
	}
	for i, q := range qs {
		if out[i].Table != nil || out[i].Err != nil {
			continue
		}
		limit, p95 := b.admitLimit()
		if b.queued >= limit {
			b.met.rejected.Inc()
			if limit < b.cfg.MaxQueue {
				b.met.shed.Inc()
			}
			retry := p95
			if retry < b.cfg.MaxWait {
				retry = b.cfg.MaxWait
			}
			out[i].Err = &OverloadError{QueueLen: b.queued, Limit: limit, P95: p95, RetryAfter: retry}
			continue
		}
		pend[i] = b.enqueueLocked(q)
	}
	return pend
}

// enqueueLocked files one admitted request into its table's open window.
// Callers hold b.mu.
func (b *Batcher) enqueueLocked(q Query) *pending {
	b.seq++
	p := &pending{
		set:  q.Set,
		aggs: q.Aggs,
		seq:  b.seq,
		enq:  time.Now(),
		ch:   make(chan Answer, 1),
	}
	w := b.windows[q.Table]
	if w == nil {
		w = &window{table: q.Table, opened: p.enq, groups: map[string]*group{}}
		tbl := q.Table
		w.deadline = time.AfterFunc(b.cfg.MaxWait, func() { b.closeTable(tbl, w, "deadline") })
		w.idle = time.AfterFunc(b.cfg.IdleWait, func() { b.closeTable(tbl, w, "idle") })
		b.windows[q.Table] = w
		b.met.openWindows.Add(1)
	} else {
		w.idle.Reset(b.cfg.IdleWait)
	}
	key := groupKey(q.Set, q.Aggs)
	g := w.groups[key]
	if g == nil {
		g = &group{set: q.Set, aggs: q.Aggs}
		w.groups[key] = g
		w.order = append(w.order, g)
	} else {
		p.dup = true
		b.met.dedup.Inc()
	}
	g.subs = append(g.subs, p)
	w.npending++
	b.queued++
	b.met.submissions.Inc()
	b.met.queueLen.Set(float64(b.queued))
	if len(w.groups) >= b.cfg.MaxBatch {
		b.closeLocked(w, "full")
	}
	return p
}

// groupKey is the window-local dedup key: grouping set plus an order-
// sensitive aggregate signature (kind, source, output name — COUNT(*)
// normalizes its source away, mirroring the result cache's keying).
func groupKey(set colset.Set, aggs []exec.Agg) string {
	sig := make([]byte, 0, 16+len(aggs)*12)
	sig = append(sig, set.String()...)
	for _, a := range aggs {
		sig = a.AppendSig(append(sig, '|'))
	}
	return string(sig)
}

// admitLimit computes the effective queue bound: MaxQueue, shrunk
// proportionally when shedding is enabled and the recent p95 batch latency
// exceeds the target, floored at MaxBatch so one window's worth always fits.
// Callers hold b.mu.
func (b *Batcher) admitLimit() (int, time.Duration) {
	p95 := time.Duration(b.p95ns.Load())
	limit := b.cfg.MaxQueue
	if target := b.cfg.ShedLatencyTarget; target > 0 && p95 > target {
		limit = int(int64(b.cfg.MaxQueue) * int64(target) / int64(p95))
		if limit < b.cfg.MaxBatch {
			limit = b.cfg.MaxBatch
		}
	}
	return limit, p95
}

// observeLatency folds one batch's execution time into the shedding window
// and republishes the p95.
func (b *Batcher) observeLatency(d time.Duration) {
	b.met.execLatency.Observe(d.Seconds())
	b.latMu.Lock()
	b.lat[b.latIdx%len(b.lat)] = d
	b.latIdx++
	n := b.latIdx
	if n > len(b.lat) {
		n = len(b.lat)
	}
	tmp := make([]time.Duration, n)
	copy(tmp, b.lat[:n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	p95 := tmp[min(n*95/100, n-1)]
	b.latMu.Unlock()
	b.p95ns.Store(int64(p95))
	b.met.p95.Set(p95.Seconds())
}

// closeTable closes w if it is still the open window for tbl (timer paths).
func (b *Batcher) closeTable(tbl string, w *window, reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.windows[tbl] != w {
		return // already closed by "full" or a racing timer
	}
	b.closeLocked(w, reason)
}

// closeLocked detaches the window and dispatches it. Callers hold b.mu.
func (b *Batcher) closeLocked(w *window, reason string) {
	delete(b.windows, w.table)
	w.deadline.Stop()
	w.idle.Stop()
	b.queued -= w.npending
	b.met.queueLen.Set(float64(b.queued))
	b.met.openWindows.Add(-1)
	b.met.closeReason(reason).Inc()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.dispatch(w)
	}()
}

// FlushTable closes tbl's open window immediately, if any. The append path
// uses it to fence batching against an epoch bump: queries batched before an
// append dispatch against the pre-append snapshot instead of straddling it.
func (b *Batcher) FlushTable(tbl string) {
	b.mu.Lock()
	if w, ok := b.windows[tbl]; ok {
		b.closeLocked(w, "flush")
	}
	b.mu.Unlock()
}

// Flush closes every open window immediately (shutdown and tests).
func (b *Batcher) Flush() {
	b.mu.Lock()
	for _, w := range b.windows {
		b.closeLocked(w, "flush")
	}
	b.mu.Unlock()
}

// Close flushes open windows, waits for in-flight batches, and rejects
// further submissions.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	for _, w := range b.windows {
		b.closeLocked(w, "flush")
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// Drain is graceful shutdown under a deadline: stop admissions (submissions
// get ErrDraining), flush every open window, and wait for in-flight batches
// until ctx expires. Returns nil when everything drained, or ctx's error when
// the deadline cut the wait short — in-flight batches then finish in the
// background and deliver to any subscriber still listening. After Drain the
// batcher is closed either way. A nil ctx waits without a deadline.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.draining = true
	b.met.draining.Set(1)
	for _, w := range b.windows {
		b.closeLocked(w, "flush")
	}
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
// window.
type Stats struct {
	Submitted    int64
	ProbeAnswers int64
	Deduped      int64
	Batches      int64
	Rejected     int64
	Shed         int64
	Panics       int64
	Conflicts    int64
	Abandoned    int64
	QueueLen     int
	OpenWindows  int
	Draining     bool
}

// Stats snapshots the scheduler counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	queued, open, draining := b.queued, len(b.windows), b.draining
	b.mu.Unlock()
	return Stats{
		Submitted:    int64(b.met.submissions.Value()),
		ProbeAnswers: int64(b.met.probeAnswers.Value()),
		Deduped:      int64(b.met.dedup.Value()),
		Batches:      int64(b.met.batches.Value()),
		Rejected:     int64(b.met.rejected.Value()),
		Shed:         int64(b.met.shed.Value()),
		Panics:       int64(b.met.panics.Value()),
		Conflicts:    int64(b.met.conflicts.Value()),
		Abandoned:    int64(b.met.abandoned.Value()),
		QueueLen:     queued,
		OpenWindows:  open,
		Draining:     draining,
	}
}

// dispatch executes one closed window: merge per-set aggregate lists, run the
// union batch once, then scatter per-request results in arrival order.
// Requests whose aggregates conflict by output name with the merged list run
// as individual follow-ups (correctness over sharing for pathological names).
func (b *Batcher) dispatch(w *window) {
	now := time.Now()
	b.met.batches.Inc()
	b.met.batchQueries.Observe(float64(len(w.order)))
	b.met.batchRequests.Add(float64(w.npending))
	b.met.occupancy.Observe(float64(len(w.order)) / float64(b.cfg.MaxBatch))

	d := &dispatch{}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	var all []*pending
	for _, g := range w.order {
		all = append(all, g.subs...)
	}
	d.live.Store(int64(len(all)))
	for _, p := range all {
		b.met.queueWait.Observe(now.Sub(p.enq).Seconds())
		p.disp.Store(d)
		p.maybeDrop() // the submitter may have abandoned before dispatch
	}
	// Containment boundary: a panic anywhere below — merge, run, scatter —
	// must never leak a subscriber. Every non-abandoned pending gets
	// ErrBatchAborted; the send is non-blocking because a pending that was
	// already served before the panic has a value in (or consumed from) its
	// buffered channel and must not block this defer forever.
	defer func() {
		pnc := recover()
		b.observeLatency(time.Since(now))
		d.cancel()
		if pnc == nil {
			return
		}
		b.met.panics.Inc()
		b.met.errors.Inc()
		err := fmt.Errorf("%w: %v", ErrBatchAborted, pnc)
		for _, p := range all {
			if p.abandoned.Load() {
				continue
			}
			select {
			case p.ch <- Answer{Err: err, Info: BatchInfo{BatchQueries: len(w.order), BatchRequests: w.npending}}:
			default:
			}
		}
	}()
	exec.Testing.Fire("sched.window.close")

	shared, solos := mergeAggs(w.order)
	b.met.conflicts.Add(float64(len(solos)))

	// Main batch: one engine run over the union of distinct sets.
	if len(shared.sets) > 0 {
		res, err := b.run(d.ctx, w.table, shared.sets, shared.perSet)
		if err != nil {
			b.met.errors.Inc()
		}
		b.scatter(w, shared.groups, res, err, shared.perSet)
	}
	// Stragglers: aggregate-name conflicts run individually, still through
	// the same engine (cache and governance apply).
	for _, g := range solos {
		perSet := map[colset.Set][]exec.Agg{g.set: g.aggs}
		res, err := b.run(d.ctx, w.table, []colset.Set{g.set}, perSet)
		if err != nil {
			b.met.errors.Inc()
		}
		b.scatter(w, []*group{g}, res, err, perSet)
	}
}

// merged is the main batch: distinct sets in arrival order, each with the
// union of its subscribers' aggregates.
type merged struct {
	sets   []colset.Set
	perSet map[colset.Set][]exec.Agg
	groups []*group
}

// mergeAggs unions aggregate lists per grouping set. Two groups share a set
// when their aggregate lists are name-compatible (same output name ⇒ same
// aggregate); a group whose names collide with the union built so far is
// deferred to a solo run.
func mergeAggs(order []*group) (merged, []*group) {
	m := merged{perSet: map[colset.Set][]exec.Agg{}}
	var solos []*group
	byName := map[colset.Set]map[string]exec.Agg{}
	for _, g := range order {
		names := byName[g.set]
		if names == nil {
			// First group for this set joins the batch as-is.
			names = make(map[string]exec.Agg, len(g.aggs))
			for _, a := range g.aggs {
				names[a.Name] = a
			}
			byName[g.set] = names
			m.sets = append(m.sets, g.set)
			m.perSet[g.set] = append([]exec.Agg(nil), g.aggs...)
			m.groups = append(m.groups, g)
			continue
		}
		compatible := true
		for _, a := range g.aggs {
			if have, ok := names[a.Name]; ok && have != a {
				compatible = false
				break
			}
		}
		if !compatible {
			solos = append(solos, g)
			continue
		}
		for _, a := range g.aggs {
			if _, ok := names[a.Name]; !ok {
				names[a.Name] = a
				m.perSet[g.set] = append(m.perSet[g.set], a)
			}
		}
		m.groups = append(m.groups, g)
	}
	return m, solos
}

// scatter delivers one run's outcome to the given groups' subscribers in
// arrival order, projecting each request back to exactly its own columns
// when its set carried merged aggregates.
func (b *Batcher) scatter(w *window, groups []*group, res *engine.RunResult, err error, perSet map[colset.Set][]exec.Agg) {
	info := BatchInfo{
		BatchQueries:  len(w.order),
		BatchRequests: w.npending,
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
	var subs []*pending
	for _, g := range groups {
		subs = append(subs, g.subs...)
	}
	// Arrival order within the batch: fair delivery, first-come first-served.
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].seq < subs[j-1].seq; j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	for _, p := range subs {
		if p.abandoned.Load() {
			continue
		}
		pi := info
		pi.Deduped = p.dup
		pi.QueueWait = time.Since(p.enq)
		if err != nil {
			p.ch <- Answer{Err: err, Info: pi}
			continue
		}
		t := res.Report.Results[p.set]
		if t == nil {
			p.ch <- Answer{Err: fmt.Errorf("sched: batch produced no result for %s", p.set), Info: pi}
			continue
		}
		pi.Origin = res.Report.Origins[p.set]
		out, perr := projectOwn(t, p.set, p.aggs, perSet[p.set])
		if perr != nil {
			p.ch <- Answer{Err: perr, Info: pi}
			continue
		}
		p.ch <- Answer{Table: out, Info: pi}
	}
}

// projectOwn narrows a set's batch result (carrying the merged aggregate
// union) to one request's own aggregates, preserving row order. When the
// request's list IS the merged list the table passes through untouched, so
// the common case adds nothing.
func projectOwn(t *table.Table, set colset.Set, own, mergedAggs []exec.Agg) (*table.Table, error) {
	if len(own) == len(mergedAggs) {
		same := true
		for i := range own {
			if own[i] != mergedAggs[i] {
				same = false
				break
			}
		}
		if same {
			return t, nil
		}
	}
	ords := make([]int, 0, set.Len()+len(own))
	for i := 0; i < set.Len(); i++ {
		ords = append(ords, i) // grouping columns lead the result schema
	}
	for _, a := range own {
		ord := t.ColIndex(a.Name)
		if ord < 0 {
			return nil, fmt.Errorf("sched: batch result lacks aggregate %q", a.Name)
		}
		ords = append(ords, ord)
	}
	return t.Project(t.Name(), ords), nil
}
