// Package engine executes logical plans: it walks the §4.4 storage-minimizing
// schedule, materializes intermediate Group By results as temp tables in the
// catalog, rolls aggregates up when computing from intermediates (§5.2),
// exploits indexes on base-table scans (§6.9), drops temp tables as soon as
// their children are computed, and accounts wall time, rows scanned and peak
// intermediate storage. It also packages the end-to-end strategies the
// experiments compare: naive, commercial GROUPING SETS emulation, GB-MQO and
// exhaustive.
//
// Execution is resource-governed: a context.Context threaded through
// Request cancels running plans at row-block boundaries, a
// MemBudget bounds the bytes held by hash tables and materialized temps with
// graceful degradation (hash → sort aggregation; temp retention → re-derive
// from base) instead of failure, and operator panics are isolated into typed
// *exec.ExecError values at the ExecutePlanWith boundary so a bad plan never
// crashes the process.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/catalog"
	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
	"gbmqo/internal/index"
	"gbmqo/internal/plan"
	"gbmqo/internal/table"
)

// DegradeKind classifies a graceful-degradation decision taken under a
// memory budget.
type DegradeKind int

// Degradation kinds, in ladder order.
const (
	// DegradeSortAgg replaced a hash aggregation whose estimated state would
	// exceed the budget with sort-based aggregation (O(rows) working state
	// instead of O(NDV) hash state).
	DegradeSortAgg DegradeKind = iota
	// DegradeUnshare split a shared scan into individual per-query passes
	// because holding every sibling's hash table at once would exceed the
	// budget.
	DegradeUnshare
	// DegradeRederive skipped materializing an intermediate temp table; its
	// children are computed from the base relation instead.
	DegradeRederive
	// DegradeKernelFallback recorded the kernel chooser preferring the dense
	// aggregation kernel but falling down the ladder because the budget would
	// not admit the kernel's working state.
	DegradeKernelFallback
)

// String names the degradation kind.
func (k DegradeKind) String() string {
	switch k {
	case DegradeSortAgg:
		return "sort-fallback"
	case DegradeUnshare:
		return "unshared-scan"
	case DegradeRederive:
		return "rederive-from-base"
	case DegradeKernelFallback:
		return "kernel-fallback"
	default:
		return fmt.Sprintf("DegradeKind(%d)", int(k))
	}
}

// Degradation records one graceful-degradation decision taken during plan
// execution under a constrained MemBudget.
type Degradation struct {
	// Kind is the ladder rung applied.
	Kind DegradeKind
	// Node is the grouping set affected.
	Node string
	// Detail explains the decision (estimated bytes vs budget headroom).
	Detail string
}

// String renders the decision.
func (d Degradation) String() string {
	return fmt.Sprintf("%s at %s: %s", d.Kind, d.Node, d.Detail)
}

// KernelUse attributes one executed Group By operator to the physical
// aggregation kernel that ran it.
type KernelUse struct {
	// Node is the grouping set computed (set notation, matching plan output).
	Node string
	// Kernel names the kernel: "hash", "sort", "dense", or the index
	// fast-path pseudo-kernels "index-stream" / "index-counts" (both counted
	// as kind "index" by gbmqo_exec_kernel_total).
	Kernel string
	// Reason is the chooser's explanation for the pick.
	Reason string
	// Rows is the operator's input row count; Groups its output group count.
	Rows   int
	Groups int
	// EstGroups is the plan's estimate of Groups, the one the kernel was
	// picked for (0 = no statistic was built for the set).
	EstGroups float64
	// Workers is the number of shares the kernel's scan ran (1 =
	// sequential); the run's worker pool may hold it below the pick's.
	Workers int
	// RehashesAvoided counts grow() doublings the NDV presize skipped.
	RehashesAvoided int
	// Wall is the operator's wall time: its scan, aggregation, merge and
	// emission. The rows of one shared scan each carry the whole scan's wall.
	Wall time.Duration
}

// String renders one attribution row.
func (k KernelUse) String() string {
	return fmt.Sprintf("%s: %s (%d rows → %d groups, est %.0f, %d workers, %v): %s",
		k.Node, k.Kernel, k.Rows, k.Groups, k.EstGroups, k.Workers, k.Wall.Round(time.Microsecond), k.Reason)
}

// SetOrigin attributes one requested grouping set's result to how it was
// produced — the per-query attribution a batching front-end needs when many
// independently submitted queries ride one plan.
type SetOrigin int

// Result origins.
const (
	// OriginComputed: the set was planned and executed by this run.
	OriginComputed SetOrigin = iota
	// OriginCacheHit: served from an exact cross-query cache entry.
	OriginCacheHit
	// OriginCacheAncestor: re-aggregated from a cached lattice ancestor.
	OriginCacheAncestor
	// OriginFlightShared: computed by a concurrent identical request this run
	// piggybacked on (singleflight follower).
	OriginFlightShared
)

// String names the origin.
func (o SetOrigin) String() string {
	switch o {
	case OriginComputed:
		return "computed"
	case OriginCacheHit:
		return "cache-hit"
	case OriginCacheAncestor:
		return "cache-ancestor"
	case OriginFlightShared:
		return "flight-shared"
	default:
		return fmt.Sprintf("SetOrigin(%d)", int(o))
	}
}

// ExecReport describes one plan execution.
//
// Concurrency: a report belongs to the Run/ExecutePlanWith call that produced
// it and is written only until that call returns; afterwards every field is
// safe to read from any goroutine without synchronization. Concurrent
// submitters each receive their own report — the only sharing is the result
// *tables* reachable from Results on the cached path (singleflight followers
// see the leader's tables), and tables are immutable once built. Cross-request
// cumulative counters live in cache.Stats (atomics, see DB.CacheStats) and
// the obs registry, never in an ExecReport.
type ExecReport struct {
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// RowsScanned totals the input rows consumed by all Group By operators.
	RowsScanned int64
	// QueriesRun counts executed Group By statements (covered cube/rollup
	// levels included).
	QueriesRun int
	// TempTables counts materialized intermediates.
	TempTables int
	// PeakTempBytes is the maximum bytes held by live temp tables.
	PeakTempBytes float64
	// ParallelOps counts Group By operators whose scan ran on more than one
	// share. Operators under the split floor, and operators whose extra
	// shares found no idle worker token, ran sequentially and are not
	// counted.
	ParallelOps int
	// MaxWorkers is the largest number of shares any operator ran.
	MaxWorkers int
	// MergeTime totals the wall time parallel operators spent merging
	// worker-local group tables into final results.
	MergeTime time.Duration
	// PeakMem is the high-water mark, in bytes, of governed execution memory:
	// hash-table slots, accumulator state, sort permutations, and materialized
	// temp tables, as charged against the run's MemBudget.
	PeakMem int64
	// SpillFallbacks counts hash aggregations degraded to the sort-based
	// operator because their estimated state would have exceeded the budget.
	SpillFallbacks int
	// Cancelled reports that execution stopped on context cancellation or
	// deadline; the report then accompanies a context error and all temp
	// tables have been dropped.
	Cancelled bool
	// Degradations lists the graceful-degradation decisions taken, in order.
	Degradations []Degradation
	// Kernels attributes, per executed Group By operator, which physical
	// aggregation kernel the adaptive chooser ran and why, in execution order.
	// Index fast paths appear with the pseudo-kernels "index-stream" /
	// "index-counts".
	Kernels []KernelUse
	// RehashesAvoided totals the hash-table grow() doublings skipped because
	// group tables were presized from NDV estimates.
	RehashesAvoided int
	// Cache describes how the cross-query result cache served this run (all
	// zero when no cache is configured or the request bypassed it).
	Cache CacheCounters
	// Attempts counts the engine-boundary attempts this result took: 1 for a
	// first-try success, more when the retry loop re-ran the request.
	// Populated by Engine.Run; direct Executor calls leave it 0.
	Attempts int
	// Retries attributes each failed-and-retried attempt: the error, its
	// classification, the backoff taken, and the degraded modes the following
	// attempt ran under. Nil on a first-try success.
	Retries []RetryAttempt
	// Origins attributes each requested grouping set's result to how it was
	// produced (computed, cache hit, ancestor re-aggregation, shared flight).
	// Populated by Engine.Run; direct Executor calls leave it nil (everything
	// an executor produces is OriginComputed by construction).
	Origins map[colset.Set]SetOrigin
	// ShardsTotal is the number of shards the request was scattered over.
	// 0 means the request was not sharded (single-engine execution).
	ShardsTotal int
	// Partial reports that the result was merged from surviving shards only
	// (Request.AllowPartial). ShardsFailed attributes the gap.
	Partial bool
	// ShardsFailed names each shard that contributed nothing to a partial
	// result and why. Nil on full (or unsharded) results.
	ShardsFailed []ShardFailure
	// ShardCoverage is the fraction of base-table rows held by the shards
	// that contributed to the result (1 on a full sharded result, 0 when not
	// sharded).
	ShardCoverage float64
	// ShardRetries counts shard-scope retry attempts taken across all shards
	// during the gather (distinct from Retries, the engine-boundary loop).
	ShardRetries int
	// HedgesFired and HedgesWon count hedged duplicate shard requests
	// launched against stragglers, and how many of them beat the primary.
	HedgesFired int
	HedgesWon   int
	// Results holds the output table per required grouping set.
	Results map[colset.Set]*table.Table
}

// ShardFailure attributes one shard's absence from a partial result.
type ShardFailure struct {
	// Shard is the failed shard's index.
	Shard int
	// Err is the final error that exhausted the shard (open breaker, retries
	// spent, deadline).
	Err error
}

// String renders the attribution compactly.
func (f ShardFailure) String() string {
	return fmt.Sprintf("shard %d: %v", f.Shard, f.Err)
}

// Executor runs plans over a base table resolved through a catalog.
type Executor struct {
	cat *catalog.Catalog
}

// NewExecutor builds an executor over the catalog.
func NewExecutor(cat *catalog.Catalog) *Executor { return &Executor{cat: cat} }

// Hooks are the executor's callbacks that are not request knobs.
type Hooks struct {
	// PromoteTemp, when non-nil, observes every materialized intermediate,
	// with the aggregates it carries, as it is dropped: the result cache's
	// promotion candidates. It must admit nothing until the run has
	// succeeded, and may be called from concurrent sub-plans under Parallel.
	PromoteTemp func(set colset.Set, aggs []exec.Agg, t *table.Table)
}

// ExecutePlanWith runs the plan against its base table, each node on the
// kernel written on it (see Engine.Plan), under the request's execution
// knobs — Aggs (nil selects COUNT(*)) with source ordinals on the base
// table, PerSetAggs, SharedScan, Parallel, Parallelism, Context, MemBudget
// and NoRetain. size estimates node result sizes for the §4.4
// scheduler (nil falls back to a flat estimate, preserving plan order but not
// storage optimality).
//
// On failure the partial report is returned alongside the error so callers
// can observe Cancelled, PeakMem and the degradations taken before the
// failure. An operator panic — including one inside a parallel worker — is
// recovered and returned as a typed *exec.ExecError naming the failing step;
// the process survives and every temp table is released.
func (ex *Executor) ExecutePlanWith(p *plan.Plan, req Request, size plan.SizeFn, hooks Hooks) (report *ExecReport, err error) {
	base, ok := ex.cat.Table(p.BaseName)
	if !ok {
		return nil, fmt.Errorf("engine: unknown base table %q", p.BaseName)
	}
	run := newPlanRun(ex, base, req, size, hooks)
	defer func() {
		if pnc := recover(); pnc != nil {
			run.releaseAll()
			run.finish()
			report = run.report
			err = &exec.ExecError{Step: run.curStep, Err: exec.RecoveredPanic(pnc)}
		}
	}()
	if run.par > 1 || req.Parallel {
		// The scan image is built lazily and shared by all operators over the
		// base table; force it before any concurrent reader can race on it.
		base.RowImage()
	}
	if len(req.PerSetAggs) > 0 {
		run.nodeAggs = map[*plan.Node][]exec.Agg{}
		for _, r := range p.Roots {
			run.buildAggUnion(r)
		}
	}
	segments := [][]plan.Step{plan.Schedule(p, run.size)}
	if req.Parallel {
		if segments, err = splitByRoot(segments[0]); err != nil {
			return run.fail(err)
		}
	}
	return run.runSegments(segments)
}

// runSteps walks one contiguous schedule (the whole plan sequentially, or
// one sub-plan segment under Parallel), polling the governing context and
// firing the engine.step fault-injection site before every step.
func runSteps(run *planRun, steps []plan.Step) error {
	for i := 0; i < len(steps); {
		step := steps[i]
		if err := run.checkStep(step); err != nil {
			return err
		}
		if step.Kind == plan.StepDrop {
			run.drop(step.Node.Set)
			i++
			continue
		}
		batch := run.siblings(steps[i:])
		if err := run.compute(batch, step.Parent); err != nil {
			return err
		}
		i += len(batch)
	}
	return nil
}

// siblings returns the batch the compute step at the head of steps starts:
// under SharedScan, the maximal run of consecutive plain Group By steps from
// the same parent that a scan of that parent serves (see detour); otherwise,
// and for a head the scan does not serve, the head alone.
func (r *planRun) siblings(steps []plan.Step) []*plan.Node {
	head := steps[0]
	batch := []*plan.Node{head.Node}
	if !r.req.SharedScan {
		return batch
	}
	for i, s := range steps {
		if s.Kind != plan.StepCompute || s.Parent != head.Parent ||
			s.Node.Op != plan.OpGroupBy || r.detour(s.Node, s.Parent) {
			break
		}
		if i > 0 {
			batch = append(batch, s.Node)
		}
	}
	return batch
}

// planRun is the state of one plan execution.
type planRun struct {
	ex   *Executor
	base *table.Table
	// req carries the execution knobs (see ExecutePlanWith), its Aggs
	// defaulted to COUNT(*); hooks the callbacks.
	req    Request
	hooks  Hooks
	par    int // most shares one operator may ask for (≤1 = sequential)
	gov    *exec.Gov
	budget *exec.MemBudget
	size   plan.SizeFn
	// tempAggs remembers the aggregates each live temp carries so the
	// promotion hook's observation is self-describing.
	temps     map[colset.Set]*table.Table
	tempBytes map[colset.Set]int64
	tempAggs  map[colset.Set][]exec.Agg
	// skipped marks intermediates whose materialization was skipped (under
	// the memory budget or req.NoRetain); children re-derive from the base
	// relation instead.
	skipped   map[colset.Set]bool
	liveBytes float64
	curStep   string // description of the step in flight, for panic context
	report    *ExecReport

	// §7.2 state: the per-node aggregate unions of req.PerSetAggs.
	nodeAggs map[*plan.Node][]exec.Agg
}

// newPlanRun builds the state of one plan execution over base: the request's
// knobs resolved into a per-operator worker budget, and a governor with its
// memory budget and the run's pool of GOMAXPROCS worker tokens.
func newPlanRun(ex *Executor, base *table.Table, req Request, size plan.SizeFn, hooks Hooks) *planRun {
	if len(req.Aggs) == 0 {
		req.Aggs = []exec.Agg{exec.CountStar()}
	}
	if size == nil {
		size = func(colset.Set) float64 { return 1 }
	}
	budget := exec.NewMemBudget(req.MemBudget)
	return (&planRun{
		ex:     ex,
		base:   base,
		req:    req,
		hooks:  hooks,
		par:    exec.ResolveWorkers(req.Parallelism),
		gov:    exec.NewRunGov(req.Context, budget, runtime.GOMAXPROCS(0)),
		budget: budget,
		size:   size,
	}).segment()
}

// segment returns a planRun that shares everything of r — request, hooks,
// governor, budget, per-node aggregates — but holds no temp tables and an
// empty report: the state of one schedule segment (see runSegments).
func (r *planRun) segment() *planRun {
	s := *r
	s.temps, s.tempBytes = map[colset.Set]*table.Table{}, map[colset.Set]int64{}
	s.tempAggs, s.skipped = map[colset.Set][]exec.Agg{}, map[colset.Set]bool{}
	s.report = &ExecReport{Results: map[colset.Set]*table.Table{}}
	return &s
}

// checkStep records the step about to run (panic context), fires the
// engine.step fault-injection site, and polls the governing context.
func (r *planRun) checkStep(step plan.Step) error {
	r.curStep = stepDesc(step)
	exec.Testing.Fire("engine.step")
	return r.gov.Err()
}

// stepDesc renders a schedule step for error context.
func stepDesc(step plan.Step) string {
	if step.Kind == plan.StepDrop {
		return fmt.Sprintf("drop %s", step.Node.Set)
	}
	if step.Parent == nil {
		return fmt.Sprintf("compute %s from base", step.Node.Set)
	}
	return fmt.Sprintf("compute %s from %s", step.Node.Set, step.Parent.Set)
}

// fail releases every live temp table, marks cancellation when the error is
// context-derived, and returns the partial report with the error.
func (r *planRun) fail(err error) (*ExecReport, error) {
	r.releaseAll()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		r.report.Cancelled = true
	}
	r.finish()
	return r.report, err
}

// finish folds the budget's high-water mark into the report.
func (r *planRun) finish() {
	if pk := r.budget.Peak(); pk > r.report.PeakMem {
		r.report.PeakMem = pk
	}
}

// releaseAll drops every live temp table and returns its budget charge.
func (r *planRun) releaseAll() {
	for set := range r.temps {
		r.drop(set)
	}
}

// degrade records one graceful-degradation decision.
func (r *planRun) degrade(kind DegradeKind, set colset.Set, detail string) {
	r.report.Degradations = append(r.report.Degradations, Degradation{
		Kind:   kind,
		Node:   set.String(),
		Detail: detail,
	})
}

// hashEstimate approximates the working state of a hash aggregation
// producing set: the materialized result (the SizeFn estimate) plus
// comparable hash-table and accumulator state — about twice the result
// bytes. It is the admission gate for the hash → sort degradation.
func (r *planRun) hashEstimate(set colset.Set) int64 {
	return 2 * int64(r.size(set))
}

// groupBy runs one read of src computing queries[i] for sets[i], each on the
// kernel choices[i] names. Under a limited budget each choice is first
// admitted (exec.Admit), the one change the executor makes to a pick: a
// dense pick may fall back to hash, and a hash pick to sort aggregation (the
// budget rung: O(rows) working state). It folds the operators into the
// report: one read of rows scanned, one query and one attribution row per
// set, and any budget-forced rung as a degradation. Every set's row carries
// the wall time of the whole read.
func (r *planRun) groupBy(src *table.Table, sets []colset.Set, queries []exec.MultiQuery, choices []exec.KernelChoice) ([]*table.Table, error) {
	limited := r.budget.Limit() > 0
	if limited {
		for i, q := range queries {
			choices[i] = exec.Admit(choices[i], r.budget, src.NumRows(), exec.DenseDomain(src, q.GroupCols), r.hashEstimate(sets[i]))
		}
	}
	r.report.RowsScanned += int64(src.NumRows())
	r.report.QueriesRun += len(queries)
	start := time.Now()
	outs, stats, err := exec.GroupByMultiGov(r.gov, src, queries, choices)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	for i, set := range sets {
		ks := stats[i]
		if ks.Kind == exec.KernelSort && limited {
			r.degrade(DegradeSortAgg, set, fmt.Sprintf(
				"estimated hash state %dB over budget (used %d of %dB); sort-based aggregation",
				r.hashEstimate(set), r.budget.Used(), r.budget.Limit()))
			r.report.SpillFallbacks++
		}
		if len(sets) > 1 {
			ks.Reason = fmt.Sprintf("shared scan of %d sibling queries; %s", len(sets), ks.Reason)
		}
		r.noteKernel(set, ks.Kind.String(), src.NumRows(), choices[i].Groups, wall, ks)
	}
	return outs, nil
}

// noteKernel folds one operator into the report: its attribution row under
// the kernel name with its wall time, budget-rejected preferences as
// kernel-fallback degradations, presize savings, and the parallelism
// counters.
func (r *planRun) noteKernel(set colset.Set, kernel string, rows int, est float64, wall time.Duration, ks exec.KernelStats) {
	for _, fb := range ks.Fallbacks {
		r.degrade(DegradeKernelFallback, set, fmt.Sprintf(
			"%s kernel preferred but %s; fell back to %s", fb.Kind, fb.Detail, kernel))
	}
	r.report.Kernels = append(r.report.Kernels, KernelUse{
		Node:            set.String(),
		Kernel:          kernel,
		Reason:          ks.Reason,
		Rows:            rows,
		Groups:          ks.Groups,
		EstGroups:       est,
		Workers:         ks.Workers,
		RehashesAvoided: ks.RehashesAvoided,
		Wall:            wall,
	})
	r.report.RehashesAvoided += ks.RehashesAvoided
	if ks.Workers > 1 {
		r.report.ParallelOps++
		r.report.MaxWorkers = max(r.report.MaxWorkers, ks.Workers)
		r.report.MergeTime += ks.Merge
	}
}

// buildAggUnion computes, bottom-up, the union of aggregates each node must
// carry: its own (when required) plus everything its descendants need —
// the §7.2 union method. Aggregates are deduplicated by output name.
func (r *planRun) buildAggUnion(n *plan.Node) []exec.Agg {
	var union []exec.Agg
	seen := map[string]bool{}
	add := func(aggs []exec.Agg) {
		for _, a := range aggs {
			if !seen[a.Name] {
				seen[a.Name] = true
				union = append(union, a)
			}
		}
	}
	if n.Required {
		add(r.setAggs(n.Set))
	}
	for _, c := range n.Children {
		add(r.buildAggUnion(c))
	}
	if len(union) == 0 {
		add(r.req.Aggs)
	}
	r.nodeAggs[n] = union
	return union
}

// setAggs returns a required set's own aggregates.
func (r *planRun) setAggs(set colset.Set) []exec.Agg {
	if a, ok := r.req.PerSetAggs[set]; ok && len(a) > 0 {
		return a
	}
	return r.req.Aggs
}

// aggsFor returns the aggregates node n's computation must produce.
func (r *planRun) aggsFor(n *plan.Node) []exec.Agg {
	if r.nodeAggs == nil {
		return r.req.Aggs
	}
	return r.nodeAggs[n]
}

// projectResult narrows a required node's result to its own grouping columns
// and aggregates (intermediates keep the union for their children).
func (r *planRun) projectResult(n *plan.Node, t *table.Table) *table.Table {
	if r.nodeAggs == nil {
		return t
	}
	own := r.setAggs(n.Set)
	var ords []int
	n.Set.ForEach(func(c int) {
		ords = append(ords, t.ColIndex(r.base.Col(c).Name()))
	})
	for _, a := range own {
		ords = append(ords, t.ColIndex(a.Name))
	}
	for _, o := range ords {
		if o < 0 {
			return t // defensive: never drop data over a naming mismatch
		}
	}
	if len(ords) == t.NumCols() {
		return t
	}
	return t.Project(t.Name(), ords)
}

// nodeErr attaches the plan-node context to a typed execution error bubbling
// out of an operator (e.g. a recovered parallel-worker panic); other errors —
// including context cancellation — pass through unchanged.
func nodeErr(n *plan.Node, err error) error {
	var ee *exec.ExecError
	if errors.As(err, &ee) && ee.Node == "" {
		ee.Node = n.Set.String()
	}
	return err
}

// compute evaluates sibling nodes — consecutive schedule steps from one
// parent (nil = the base relation) — in one scan of that parent: the §5.1
// shared scan, of which a single step is the batch of one. A child a
// CUBE/ROLLUP parent covers is skipped: expandCovered delivered it with the
// parent. A node the scan does not serve leaves it before it runs (see
// detour). Under a constrained budget, a batch whose combined hash state
// would not fit splits into batches of one, each with its own admission
// (hash, sort, or re-derive).
func (r *planRun) compute(nodes []*plan.Node, parent *plan.Node) error {
	var scan []*plan.Node
	for _, n := range nodes {
		var err error
		switch {
		case parent != nil && plan.Covered(parent, n.Set):
		case !r.detour(n, parent):
			scan = append(scan, n)
		case parent == nil || r.indexFor(n) != nil:
			err = r.indexed(n)
		default:
			// Re-derive from the base relation: an input the plan did not
			// price, so the node's kernel is picked again for it.
			c := pickKernel(r.base, n.Set, r.base.NumRows(), n.Kernel.Groups, r.par)
			err = r.scan(r.base, []*plan.Node{n}, []exec.KernelChoice{c})
		}
		if err != nil {
			return nodeErr(n, err)
		}
	}
	if len(scan) == 0 {
		return nil
	}
	src := r.base
	if parent != nil {
		if src = r.temps[parent.Set]; src == nil {
			return fmt.Errorf("engine: intermediate %s not materialized", parent.Set)
		}
	}
	choices := make([]exec.KernelChoice, len(scan))
	for i, n := range scan {
		choices[i] = n.Kernel
	}
	if len(scan) > 1 && r.budget.Limit() > 0 {
		var est int64
		for _, n := range scan {
			est += r.hashEstimate(n.Set)
		}
		if r.budget.WouldExceed(est) {
			r.degrade(DegradeUnshare, scan[0].Set, fmt.Sprintf(
				"%d-query shared scan needs ~%dB of concurrent hash state (used %d of %dB); splitting into individual passes",
				len(scan), est, r.budget.Used(), r.budget.Limit()))
			for i := range scan {
				if err := r.scan(src, scan[i:i+1], choices[i:i+1]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return r.scan(src, scan, choices)
}

// scan computes nodes in one read of src, each on choices[i], and delivers
// their results.
func (r *planRun) scan(src *table.Table, nodes []*plan.Node, choices []exec.KernelChoice) error {
	sets := make([]colset.Set, len(nodes))
	queries := make([]exec.MultiQuery, len(nodes))
	for i, n := range nodes {
		q, err := r.query(src, n.Set, r.aggsFor(n))
		if err != nil {
			return err
		}
		sets[i], queries[i] = n.Set, q
	}
	outs, err := r.groupBy(src, sets, queries, choices)
	if err != nil {
		return nodeErr(nodes[0], err)
	}
	for i, n := range nodes {
		if err := r.deliver(n, outs[i]); err != nil {
			return nodeErr(n, err)
		}
	}
	return nil
}

// detour reports whether node n leaves a scan of parent before it runs. A
// node whose parent was skipped, or whose aggregates do not roll up through
// an intermediate (AVG), re-derives from the base relation instead of
// failing or letting the planner's sharing decision break the aggregate; at
// the base, a node an index covers takes the index fast path.
func (r *planRun) detour(n, parent *plan.Node) bool {
	if parent == nil {
		return r.indexFor(n) != nil
	}
	return r.skipped[parent.Set] || !cache.Rollupable(r.aggsFor(n))
}

// indexFor returns the base table's best index for n's grouping set (nil when
// none serves it).
func (r *planRun) indexFor(n *plan.Node) *index.Index {
	return index.BestFor(r.ex.cat.Indexes(r.base.Name()), n.Set)
}

// query builds GROUP BY set over src: base ordinals over the base relation,
// otherwise mapped onto the intermediate's schema with the aggregates rolled
// up (§5.2).
func (r *planRun) query(src *table.Table, set colset.Set, aggs []exec.Agg) (exec.MultiQuery, error) {
	q := exec.MultiQuery{GroupCols: set.Columns(), Aggs: aggs, OutName: plan.TempName(set)}
	if src == r.base {
		return q, nil
	}
	var err error
	q.GroupCols, q.Aggs, err = mapToParent(r.base, src, set, aggs)
	return q, err
}

// indexed computes node n over the base relation off the index that covers
// it (§6.9) and delivers the result: COUNT(*) reads group sizes off the index
// boundaries, O(#full-key groups) with no base-table scan at all; other
// aggregates stream the rows the index clusters by group.
func (r *planRun) indexed(n *plan.Node) error {
	ix := r.indexFor(n)
	cols, aggs, name := n.Set.Columns(), r.aggsFor(n), plan.TempName(n.Set)
	r.report.QueriesRun++
	start := time.Now()
	if countStarOnly(aggs) {
		r.report.RowsScanned += int64(ix.NumGroups())
		var out *table.Table
		if ix.ExactMatch(n.Set) {
			out = exec.GroupByIndexCounts(r.base, ix, name)
		} else {
			out = exec.GroupByIndexPrefixCounts(r.base, ix, cols, name)
		}
		r.noteKernel(n.Set, "index-counts", ix.NumGroups(), n.Kernel.Groups, time.Since(start), exec.KernelStats{Workers: 1, Groups: out.NumRows(),
			Reason: fmt.Sprintf("COUNT(*) off index %s boundaries", ix.Name())})
		return r.deliver(n, renameAggs(out, aggs))
	}
	r.report.RowsScanned += int64(r.base.NumRows())
	out, err := exec.GroupByIndexStreamGov(r.gov, r.base, ix, cols, aggs, name)
	if err != nil {
		return err
	}
	r.noteKernel(n.Set, "index-stream", r.base.NumRows(), n.Kernel.Groups, time.Since(start), exec.KernelStats{Workers: 1, Groups: out.NumRows(),
		Reason: fmt.Sprintf("rows clustered by index %s", ix.Name())})
	return r.deliver(n, out)
}

// deliver hands a computed node's result on: a CUBE/ROLLUP node first
// expands its covered levels, an intermediate is retained for its children,
// and a required set's result is projected to its own aggregates.
func (r *planRun) deliver(n *plan.Node, out *table.Table) error {
	if n.Op == plan.OpCube || n.Op == plan.OpRollup {
		if err := r.expandCovered(n, out); err != nil {
			return err
		}
	}
	if n.IsIntermediate() {
		r.retain(n.Set, r.aggsFor(n), out)
	}
	if n.Required {
		r.report.Results[n.Set] = r.projectResult(n, out)
	}
	return nil
}

// mapToParent resolves base ordinals and aggregates against the schema of an
// intermediate — a temp table or a cached lattice ancestor (both keep base
// column names; aggregate columns keep their output names) — rolling the
// aggregates up (COUNT(*) → SUM(cnt) etc., §5.2).
func mapToParent(base, parent *table.Table, set colset.Set, aggs []exec.Agg) ([]int, []exec.Agg, error) {
	baseCols := set.Columns()
	cols := make([]int, len(baseCols))
	for i, bc := range baseCols {
		name := base.Col(bc).Name()
		ord := parent.ColIndex(name)
		if ord < 0 {
			return nil, nil, fmt.Errorf("engine: intermediate %s lacks column %q", parent.Name(), name)
		}
		cols[i] = ord
	}
	rolled := make([]exec.Agg, len(aggs))
	for i, a := range aggs {
		src := parent.ColIndex(a.Name)
		if src < 0 {
			return nil, nil, fmt.Errorf("engine: intermediate %s lacks aggregate %q", parent.Name(), a.Name)
		}
		rolled[i] = a.Rollup(src)
	}
	return cols, rolled, nil
}

// expandCovered executes the level-wise covered sets of a CUBE/ROLLUP node
// (each covered set computed from its CoveredParent, mirroring the plan-cost
// pricing), keeping covered results available for required sets and for
// children of the plan tree that the operator covers.
func (r *planRun) expandCovered(n *plan.Node, own *table.Table) error {
	covered := plan.CoveredSets(n)
	results := map[colset.Set]*table.Table{n.Set: own}
	for i := len(covered) - 2; i >= 0; i-- { // largest first; the last is n.Set
		s := covered[i]
		parentSet := plan.CoveredParent(n, s)
		parent, ok := results[parentSet]
		if !ok {
			return fmt.Errorf("engine: covered parent %s of %s not computed", parentSet, s)
		}
		q, err := r.query(parent, s, r.aggsFor(n))
		if err != nil {
			return err
		}
		outs, err := r.groupBy(parent, []colset.Set{s}, []exec.MultiQuery{q}, []exec.KernelChoice{n.Levels[s]})
		if err != nil {
			return err
		}
		results[s] = outs[0]
	}
	// Hand covered results to required sets and covered children.
	for _, c := range n.Children {
		if !plan.Covered(n, c.Set) {
			continue
		}
		t := results[c.Set]
		if t == nil {
			return fmt.Errorf("engine: covered child %s missing from cube output", c.Set)
		}
		if c.Required {
			r.report.Results[c.Set] = r.projectResult(c, t)
		}
		if c.IsIntermediate() {
			r.retain(c.Set, r.aggsFor(n), t)
		}
	}
	// Required sets covered by the operator that are not explicit children do
	// not occur (the planner always makes them children), but requiredness of
	// the node itself is handled by deliver().
	return nil
}

// retain registers a materialized intermediate and updates storage and
// budget accounting. aggs are the aggregates the table carries (the node's
// union under §7.2), recorded so the drop-time promotion hook can describe
// the table. When keeping the table would exceed the memory budget, it is
// skipped instead: children re-derive from the base relation (the
// materialization trades memory for time; the budget reverses the trade).
func (r *planRun) retain(set colset.Set, aggs []exec.Agg, t *table.Table) {
	if _, dup := r.temps[set]; dup {
		return
	}
	exec.Testing.Fire("engine.retain")
	if r.req.NoRetain {
		// Deliberate skip, not a budget degradation: the retry ladder asked
		// for a retention-free run, so no Degradation is recorded (the
		// attribution lives in RetryAttempt.Degraded).
		r.skipped[set] = true
		return
	}
	mem := t.MemSize()
	if r.budget.Limit() > 0 && r.budget.WouldExceed(mem) {
		r.skipped[set] = true
		r.degrade(DegradeRederive, set, fmt.Sprintf(
			"materializing %dB temp over budget (used %d of %dB); children re-derive from base",
			mem, r.budget.Used(), r.budget.Limit()))
		return
	}
	r.budget.Add(mem)
	r.tempBytes[set] = mem
	r.tempAggs[set] = aggs
	r.temps[set] = t
	r.report.TempTables++
	r.liveBytes += t.SizeBytes()
	if r.liveBytes > r.report.PeakTempBytes {
		r.report.PeakTempBytes = r.liveBytes
	}
}

// drop frees an intermediate and returns its budget charge, first handing the
// table to the promotion hook (the cache's chance to keep what the schedule
// is done with).
func (r *planRun) drop(set colset.Set) {
	t, ok := r.temps[set]
	if !ok {
		return
	}
	if r.hooks.PromoteTemp != nil {
		r.hooks.PromoteTemp(set, r.tempAggs[set], t)
	}
	r.liveBytes -= t.SizeBytes()
	delete(r.temps, set)
	r.budget.Release(r.tempBytes[set])
	delete(r.tempBytes, set)
	delete(r.tempAggs, set)
}

// countStarOnly reports whether every aggregate is COUNT(*) — the condition
// for the exact-match index fast path.
func countStarOnly(aggs []exec.Agg) bool {
	for _, a := range aggs {
		if a.Kind != exec.AggCountStar {
			return false
		}
	}
	return true
}

// renameAggs aligns the index fast path's single "cnt" column with the
// requested aggregate names (COUNT(*) only, possibly aliased).
func renameAggs(t *table.Table, aggs []exec.Agg) *table.Table {
	if len(aggs) == 1 && aggs[0].Name == "cnt" {
		return t
	}
	cols := make([]*table.Column, 0, t.NumCols()-1+len(aggs))
	cnt := t.ColByName("cnt")
	for i := 0; i < t.NumCols(); i++ {
		if t.Col(i) == cnt {
			continue
		}
		cols = append(cols, t.Col(i))
	}
	for _, a := range aggs {
		out := cnt.EmptyLike(a.Name)
		out.AppendCodes(cnt.Codes())
		cols = append(cols, out)
	}
	return table.FromColumns(t.Name(), cols)
}
