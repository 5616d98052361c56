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
// ExecOptions cancels running plans at row-block boundaries, a
// MemBudget bounds the bytes held by hash tables and materialized temps with
// graceful degradation (hash → sort aggregation; temp retention → re-derive
// from base) instead of failure, and operator panics are isolated into typed
// *exec.ExecError values at the ExecutePlan boundary so a bad plan never
// crashes the process.
package engine

import (
	"context"
	"errors"
	"fmt"
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
	// Workers is the parallel worker count the kernel used (1 = sequential).
	Workers int
	// RehashesAvoided counts grow() doublings the NDV presize skipped.
	RehashesAvoided int
}

// String renders one attribution row.
func (k KernelUse) String() string {
	return fmt.Sprintf("%s: %s (%d rows → %d groups, %d workers): %s",
		k.Node, k.Kernel, k.Rows, k.Groups, k.Workers, k.Reason)
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
// Concurrency: a report belongs to the Run/ExecutePlan call that produced it
// and is written only until that call returns; afterwards every field is safe
// to read from any goroutine without synchronization. Concurrent submitters
// each receive their own report — the only sharing is the result *tables*
// reachable from Results on the cached path (singleflight followers see the
// leader's tables), and tables are immutable once built. Cross-request
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
	// ParallelOps counts Group By operators that ran on the parallel
	// path (operators under the size cutoff fall back to sequential and are
	// not counted).
	ParallelOps int
	// MaxWorkers is the largest worker count any operator used.
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

// ExecOptions tunes plan execution.
type ExecOptions struct {
	// SharedScan computes sibling Group Bys (consecutive schedule steps with
	// the same parent) in one pass over the parent — the §5.1 shared-scan
	// technique. Index fast paths and CUBE/ROLLUP nodes are executed
	// individually regardless.
	SharedScan bool
	// PerSetAggs assigns different aggregates per required grouping set
	// (§7.2). Intermediate nodes carry the union of their required
	// descendants' aggregates; each required set's result is projected back
	// to its own.
	PerSetAggs map[colset.Set][]exec.Agg
	// Parallel executes independent sub-plans (trees hanging directly off the
	// base relation) concurrently, one goroutine per sub-plan bounded by
	// GOMAXPROCS. Temp tables are private to their sub-plan, so no
	// synchronization is needed beyond merging the reports; PeakTempBytes
	// becomes the (pessimistic) sum of concurrent per-sub-plan peaks.
	Parallel bool
	// Parallelism caps the workers *inside* one Group By operator
	// (intra-operator parallelism, orthogonal to Parallel's inter-sub-plan
	// concurrency): 0 disables it, negative selects GOMAXPROCS, positive
	// values are used as-is. Operators whose input is below the exec size
	// cutoff stay sequential regardless, so tiny temp-table re-aggregations
	// never pay parallel overhead. Index fast paths are always sequential.
	Parallelism int
	// Context cancels or deadlines the execution. Operator loops poll it at
	// row-block boundary, so cancellation takes effect within one block's
	// worth of work, drops every temp table, and leaves
	// the catalog unchanged. Nil means context.Background().
	Context context.Context
	// MemBudget bounds, in bytes, the execution working state held at once:
	// hash-table slots, accumulator arrays, sort permutations, and
	// materialized temp tables. Exceeding the budget triggers graceful
	// degradation (sort-based aggregation, un-shared scans, re-deriving
	// subtrees from the base relation) rather than failure; the decisions
	// taken are recorded in ExecReport.Degradations. 0 means unlimited —
	// PeakMem is still measured.
	MemBudget int64
	// NDVFn, when non-nil, answers NDV estimates for grouping sets from
	// *already-built* statistics (0 = unknown) — the stats feed of the
	// adaptive kernel chooser. It must never build a statistic: kernel choice
	// happens mid-execution, where profiling would cost more than it saves.
	NDVFn func(colset.Set) float64
	// NoRetain skips materializing intermediate temp tables regardless of
	// budget headroom; children re-derive from the base relation through the
	// same skipped-intermediate machinery the memory budget uses. Results are
	// byte-identical; the run trades extra scans for holding no shared state.
	NoRetain bool
	// PromoteTemp, when non-nil, observes every materialized intermediate at
	// the moment it would be dropped, along with the aggregates it carries —
	// the hook the result cache uses to collect promotion candidates instead
	// of letting temps die with the run. The hook only records candidates; it
	// must not admit anything until the run has succeeded, so a cancelled or
	// failed execution can never leave a partially admitted entry. It may be
	// called from concurrent sub-plan goroutines under ExecOptions.Parallel.
	PromoteTemp func(set colset.Set, aggs []exec.Agg, t *table.Table)
}

// ExecutePlan runs the plan against its base table. aggs are the aggregate
// specifications with source ordinals on the base table; nil selects
// COUNT(*). size estimates node result sizes for the §4.4 scheduler (nil
// falls back to a flat estimate, preserving plan order but not storage
// optimality).
func (ex *Executor) ExecutePlan(p *plan.Plan, aggs []exec.Agg, size plan.SizeFn) (*ExecReport, error) {
	return ex.ExecutePlanWith(p, aggs, size, ExecOptions{})
}

// ExecutePlanWith is ExecutePlan with execution options.
//
// On failure the partial report is returned alongside the error so callers
// can observe Cancelled, PeakMem and the degradations taken before the
// failure. An operator panic — including one inside a parallel worker — is
// recovered and returned as a typed *exec.ExecError naming the failing step;
// the process survives and every temp table is released.
func (ex *Executor) ExecutePlanWith(p *plan.Plan, aggs []exec.Agg, size plan.SizeFn, opts ExecOptions) (report *ExecReport, err error) {
	base, ok := ex.cat.Table(p.BaseName)
	if !ok {
		return nil, fmt.Errorf("engine: unknown base table %q", p.BaseName)
	}
	if len(aggs) == 0 {
		aggs = []exec.Agg{exec.CountStar()}
	}
	if size == nil {
		size = func(colset.Set) float64 { return 1 }
	}
	budget := exec.NewMemBudget(opts.MemBudget)
	run := &planRun{
		ex:        ex,
		base:      base,
		aggs:      aggs,
		par:       exec.ResolveWorkers(opts.Parallelism),
		gov:       exec.NewGov(opts.Context, budget),
		budget:    budget,
		size:      size,
		ndv:       opts.NDVFn,
		noRetain:  opts.NoRetain,
		promote:   opts.PromoteTemp,
		temps:     map[colset.Set]*table.Table{},
		tempBytes: map[colset.Set]int64{},
		tempAggs:  map[colset.Set][]exec.Agg{},
		skipped:   map[colset.Set]bool{},
		report:    &ExecReport{Results: map[colset.Set]*table.Table{}},
	}
	defer func() {
		if pnc := recover(); pnc != nil {
			run.releaseAll()
			run.finish()
			report = run.report
			err = &exec.ExecError{Step: run.curStep, Err: exec.RecoveredPanic(pnc)}
		}
	}()
	if run.par > 1 {
		// The scan image is built lazily and shared by all operators over the
		// base table; force it before any parallel worker can race on it.
		base.RowImage()
	}
	if len(opts.PerSetAggs) > 0 {
		run.perSet = opts.PerSetAggs
		run.nodeAggs = map[*plan.Node][]exec.Agg{}
		for _, r := range p.Roots {
			run.buildAggUnion(r)
		}
	}
	steps := plan.Schedule(p, size)
	if opts.Parallel {
		return ex.executeParallel(run, p, steps, opts)
	}
	start := time.Now()
	if err := runSteps(run, steps, opts); err != nil {
		return run.fail(err)
	}
	run.report.Wall = time.Since(start)
	run.finish()
	annotateKernels(p, run.report)
	return run.report, nil
}

// annotateKernels attaches the report's per-node kernel attribution to the
// plan for display: p.String() then renders each node with the kernel that
// executed it. The first attribution per node wins (CUBE/ROLLUP covered
// levels re-aggregate under the same set; the node's own computation comes
// first).
func annotateKernels(p *plan.Plan, rep *ExecReport) {
	if len(rep.Kernels) == 0 {
		return
	}
	notes := make(map[string]string, len(rep.Kernels))
	for _, k := range rep.Kernels {
		if _, ok := notes[k.Node]; !ok {
			notes[k.Node] = k.Kernel
		}
	}
	p.Annotate(notes)
}

// runSteps walks one contiguous schedule (the whole plan sequentially, or
// one sub-plan segment under Parallel), polling the governing context and
// firing the engine.step fault-injection site before every step.
func runSteps(run *planRun, steps []plan.Step, opts ExecOptions) error {
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
		if opts.SharedScan {
			if batch := shareableRun(steps[i:], run); len(batch) > 1 {
				if err := run.computeShared(batch, step.Parent); err != nil {
					return err
				}
				i += len(batch)
				continue
			}
		}
		if err := run.compute(step.Node, step.Parent); err != nil {
			return err
		}
		i++
	}
	return nil
}

// shareableRun returns the maximal prefix of steps that can execute as one
// shared scan: consecutive plain Group By computations from the same parent,
// none of which has an index fast path.
func shareableRun(steps []plan.Step, run *planRun) []*plan.Node {
	var batch []*plan.Node
	parent := steps[0].Parent
	for _, s := range steps {
		if s.Kind != plan.StepCompute || !sameParent(s.Parent, parent) || s.Node.Op != plan.OpGroupBy {
			break
		}
		if parent == nil && index.BestFor(run.ex.cat.Indexes(run.base.Name()), s.Node.Set) != nil {
			break // let the index path handle it individually
		}
		if parent != nil && !cache.Rollupable(run.aggsFor(s.Node)) {
			break // AVG node: must re-derive from base, not the shared temp
		}
		batch = append(batch, s.Node)
	}
	return batch
}

func sameParent(a, b *plan.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Set == b.Set
}

// planRun is the state of one plan execution.
type planRun struct {
	ex     *Executor
	base   *table.Table
	aggs   []exec.Agg
	par    int // intra-operator worker budget (≤1 = sequential)
	gov    *exec.Gov
	budget *exec.MemBudget
	size   plan.SizeFn
	// ndv answers NDV estimates from already-built statistics for the kernel
	// chooser (nil or a 0 answer = unknown; see ExecOptions.NDVFn).
	ndv func(colset.Set) float64
	// noRetain skips every temp-table materialization (ExecOptions.NoRetain);
	// children re-derive from base via the skipped map.
	noRetain bool
	// promote, when non-nil, observes each temp as it is dropped (see
	// ExecOptions.PromoteTemp); tempAggs remembers the aggregates each live
	// temp carries so the observation is self-describing.
	promote   func(colset.Set, []exec.Agg, *table.Table)
	temps     map[colset.Set]*table.Table
	tempBytes map[colset.Set]int64
	tempAggs  map[colset.Set][]exec.Agg
	// skipped marks intermediates whose materialization was skipped under the
	// memory budget; children re-derive from the base relation instead.
	skipped   map[colset.Set]bool
	liveBytes float64
	curStep   string // description of the step in flight, for panic context
	report    *ExecReport

	// §7.2 state: per-required-set aggregates and the per-node unions.
	perSet   map[colset.Set][]exec.Agg
	nodeAggs map[*plan.Node][]exec.Agg
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

// hashGroupBy dispatches one Group By aggregation through the adaptive
// kernel chooser: per-node statistics (NDV estimate, dictionary-derived dense
// domain, row count) and the memory budget pick among the dense key mode,
// sort-based aggregation (the budget rung: O(rows) working state), and the
// presized hash key modes (parallel when the worker budget and input size
// allow).
// The pick, its reason, and any budget-rejected preferences are recorded in
// the report's kernel attribution and degradation list.
func (r *planRun) hashGroupBy(src *table.Table, cols []int, aggs []exec.Agg, set colset.Set, name string) (*table.Table, error) {
	hints := exec.AdaptiveHints{Workers: r.par}
	if len(cols) > 0 {
		hints.NDV = r.ndvEstimate(set)
		if r.budget.Limit() > 0 {
			hints.HashStateBytes = r.hashEstimate(set)
		}
	}
	out, ks, err := exec.GroupByAdaptiveGov(r.gov, src, cols, aggs, name, hints)
	if err != nil {
		return nil, err
	}
	if ks.Kind == exec.KernelSort && hints.HashStateBytes > 0 {
		r.degrade(DegradeSortAgg, set, fmt.Sprintf(
			"estimated hash state %dB over budget (used %d of %dB); sort-based aggregation",
			hints.HashStateBytes, r.budget.Used(), r.budget.Limit()))
		r.report.SpillFallbacks++
	}
	r.noteKernel(set, src.NumRows(), ks)
	return out, nil
}

// ndvEstimate answers the chooser's NDV question from already-built
// statistics (0 = unknown).
func (r *planRun) ndvEstimate(set colset.Set) float64 {
	if r.ndv == nil {
		return 0
	}
	return r.ndv(set)
}

// noteKernel folds one operator's kernel stats into the report: the per-node
// attribution row, budget-rejected preferences as kernel-fallback
// degradations, presize savings, and the parallelism counters.
func (r *planRun) noteKernel(set colset.Set, rows int, ks exec.KernelStats) {
	for _, fb := range ks.Fallbacks {
		r.degrade(DegradeKernelFallback, set, fmt.Sprintf(
			"%s kernel preferred but %s; fell back to %s", fb.Kind, fb.Detail, ks.Kind))
	}
	r.noteKernelNamed(set, ks.Kind.String(), ks.Reason, rows, ks)
	r.notePar(ks.Workers, ks.Merge)
}

// noteKernelNamed records one attribution row — groups, workers and
// rehashes avoided from ks — under the given kernel name and reason.
func (r *planRun) noteKernelNamed(set colset.Set, kernel, reason string, rows int, ks exec.KernelStats) {
	r.report.Kernels = append(r.report.Kernels, KernelUse{
		Node:            set.String(),
		Kernel:          kernel,
		Reason:          reason,
		Rows:            rows,
		Groups:          ks.Groups,
		Workers:         ks.Workers,
		RehashesAvoided: ks.RehashesAvoided,
	})
	r.report.RehashesAvoided += ks.RehashesAvoided
}

// notePar folds one operator's parallelism into the report.
func (r *planRun) notePar(workers int, merge time.Duration) {
	if workers <= 1 {
		return
	}
	r.report.ParallelOps++
	r.report.MaxWorkers = max(r.report.MaxWorkers, workers)
	r.report.MergeTime += merge
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
		add(r.aggs)
	}
	r.nodeAggs[n] = union
	return union
}

// setAggs returns a required set's own aggregates.
func (r *planRun) setAggs(set colset.Set) []exec.Agg {
	if a, ok := r.perSet[set]; ok && len(a) > 0 {
		return a
	}
	return r.aggs
}

// aggsFor returns the aggregates node n's computation must produce.
func (r *planRun) aggsFor(n *plan.Node) []exec.Agg {
	if r.nodeAggs == nil {
		return r.aggs
	}
	return r.nodeAggs[n]
}

// projectResult narrows a required node's result to its own grouping columns
// and aggregates (intermediates keep the union for their children).
func (r *planRun) projectResult(n *plan.Node, t *table.Table) *table.Table {
	if r.perSet == nil {
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

// compute evaluates one node from its parent (nil parent = base relation).
func (r *planRun) compute(n *plan.Node, parent *plan.Node) error {
	var out *table.Table
	var err error
	if parent == nil {
		out, err = r.fromBase(n)
	} else {
		out, err = r.fromTemp(n, parent.Set)
	}
	if err != nil {
		return nodeErr(n, err)
	}
	switch n.Op {
	case plan.OpCube, plan.OpRollup:
		if err := r.expandCovered(n, out); err != nil {
			return nodeErr(n, err)
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

// computeShared evaluates several sibling nodes in one pass over their
// common parent (nil = base relation). Under a constrained budget, a batch
// whose combined hash state would not fit — or whose parent was never
// materialized — falls back to individual computation, where each query gets
// its own admission decision (hash, sort, or re-derive from base).
func (r *planRun) computeShared(nodes []*plan.Node, parent *plan.Node) error {
	src := r.base
	if parent != nil {
		var ok bool
		src, ok = r.temps[parent.Set]
		if !ok {
			if r.skipped[parent.Set] {
				return r.computeIndividually(nodes, parent)
			}
			return fmt.Errorf("engine: intermediate %s not materialized", parent.Set)
		}
	}
	if r.budget.Limit() > 0 {
		var est int64
		for _, n := range nodes {
			est += r.hashEstimate(n.Set)
		}
		if r.budget.WouldExceed(est) {
			r.degrade(DegradeUnshare, nodes[0].Set, fmt.Sprintf(
				"%d-query shared scan needs ~%dB of concurrent hash state (used %d of %dB); splitting into individual passes",
				len(nodes), est, r.budget.Used(), r.budget.Limit()))
			return r.computeIndividually(nodes, parent)
		}
	}
	queries := make([]exec.MultiQuery, len(nodes))
	for i, n := range nodes {
		if parent == nil {
			queries[i] = exec.MultiQuery{GroupCols: n.Set.Columns(), Aggs: r.aggsFor(n), OutName: plan.TempName(n.Set)}
		} else {
			cols, rolled, err := mapToParent(r.base, src, n.Set, r.aggsFor(n))
			if err != nil {
				return err
			}
			queries[i] = exec.MultiQuery{GroupCols: cols, Aggs: rolled, OutName: plan.TempName(n.Set)}
		}
		if hint := int(r.ndvEstimate(n.Set)); hint > 0 {
			if hint > src.NumRows() {
				hint = src.NumRows()
			}
			queries[i].SizeHint = hint
		}
	}
	// One scan of the parent feeds every sibling.
	r.report.RowsScanned += int64(src.NumRows())
	r.report.QueriesRun += len(nodes)
	outs, stats, err := exec.GroupByHashMultiGov(r.gov, src, queries, r.par)
	if err != nil {
		return nodeErr(nodes[0], err)
	}
	sharedReason := fmt.Sprintf("shared scan of %d sibling queries", len(nodes))
	var merge time.Duration
	for i, n := range nodes {
		r.noteKernelNamed(n.Set, stats[i].Kind.String(), sharedReason, src.NumRows(), stats[i])
		merge += stats[i].Merge
	}
	r.notePar(stats[0].Workers, merge)
	for i, n := range nodes {
		if n.IsIntermediate() {
			r.retain(n.Set, r.aggsFor(n), outs[i])
		}
		if n.Required {
			r.report.Results[n.Set] = r.projectResult(n, outs[i])
		}
	}
	return nil
}

// computeIndividually evaluates shared-scan candidates one at a time — the
// degraded form of computeShared that holds a single query's state at once.
func (r *planRun) computeIndividually(nodes []*plan.Node, parent *plan.Node) error {
	for _, n := range nodes {
		if err := r.compute(n, parent); err != nil {
			return err
		}
	}
	return nil
}

// fromBase computes a Group By over the base relation, exploiting an index
// when the physical design allows.
func (r *planRun) fromBase(n *plan.Node) (*table.Table, error) {
	cols := n.Set.Columns()
	aggs := r.aggsFor(n)
	r.report.QueriesRun++
	r.report.RowsScanned += int64(r.base.NumRows())
	name := plan.TempName(n.Set)
	if ix := index.BestFor(r.ex.cat.Indexes(r.base.Name()), n.Set); ix != nil {
		if countStarOnly(aggs) {
			// Index-only fast paths: counts off the boundaries, O(#full-key
			// groups) — no base-table scan at all.
			r.report.RowsScanned -= int64(r.base.NumRows())
			r.report.RowsScanned += int64(ix.NumGroups())
			var out *table.Table
			if ix.ExactMatch(n.Set) {
				out = exec.GroupByIndexCounts(r.base, ix, name)
			} else {
				out = exec.GroupByIndexPrefixCounts(r.base, ix, cols, name)
			}
			r.noteKernelNamed(n.Set, "index-counts",
				fmt.Sprintf("COUNT(*) off index %s boundaries", ix.Name()),
				ix.NumGroups(), exec.KernelStats{Workers: 1, Groups: out.NumRows()})
			return renameAggs(out, aggs), nil
		}
		out, err := exec.GroupByIndexStreamGov(r.gov, r.base, ix, cols, aggs, name)
		if err == nil {
			r.noteKernelNamed(n.Set, "index-stream",
				fmt.Sprintf("rows clustered by index %s", ix.Name()),
				r.base.NumRows(), exec.KernelStats{Workers: 1, Groups: out.NumRows()})
		}
		return out, err
	}
	return r.hashGroupBy(r.base, cols, aggs, n.Set, name)
}

// fromTemp computes a Group By over a materialized intermediate, rolling the
// aggregates up (COUNT(*) → SUM(cnt) etc., §5.2). When the intermediate was
// skipped under the memory budget, the node re-derives from the base
// relation with its original (un-rolled) aggregates instead of failing.
func (r *planRun) fromTemp(n *plan.Node, parentSet colset.Set) (*table.Table, error) {
	parent, ok := r.temps[parentSet]
	if !ok {
		if r.skipped[parentSet] {
			return r.fromBase(n)
		}
		return nil, fmt.Errorf("engine: intermediate %s not materialized", parentSet)
	}
	if !cache.Rollupable(r.aggsFor(n)) {
		// AVG does not roll up through an intermediate: re-derive this node
		// from the base relation (same fallback as a skipped temp) instead of
		// letting the planner's sharing decision break the aggregate.
		return r.fromBase(n)
	}
	return r.groupFromTable(parent, n.Set, r.aggsFor(n))
}

// groupFromTable evaluates GROUP BY set over a materialized intermediate.
func (r *planRun) groupFromTable(parent *table.Table, set colset.Set, aggs []exec.Agg) (*table.Table, error) {
	cols, rolled, err := mapToParent(r.base, parent, set, aggs)
	if err != nil {
		return nil, err
	}
	r.report.QueriesRun++
	r.report.RowsScanned += int64(parent.NumRows())
	return r.hashGroupBy(parent, cols, rolled, set, plan.TempName(set))
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
	covered := coveredSets(n)
	results := map[colset.Set]*table.Table{n.Set: own}
	for _, s := range covered { // sorted descending by size via coveredSets
		if s == n.Set {
			continue
		}
		parentSet := plan.CoveredParent(n, s)
		parent, ok := results[parentSet]
		if !ok {
			return fmt.Errorf("engine: covered parent %s of %s not computed", parentSet, s)
		}
		out, err := r.groupFromTable(parent, s, r.aggsFor(n))
		if err != nil {
			return err
		}
		results[s] = out
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
	// the node itself is handled by compute().
	return nil
}

// coveredSets lists the operator's covered sets in descending size order so
// each level's parent is computed before it.
func coveredSets(n *plan.Node) []colset.Set {
	var out []colset.Set
	switch n.Op {
	case plan.OpCube:
		n.Set.Subsets(func(s colset.Set) bool {
			if !s.IsEmpty() {
				out = append(out, s)
			}
			return true
		})
	case plan.OpRollup:
		var prefix colset.Set
		for _, c := range n.RollupOrder {
			prefix = prefix.Add(c)
			out = append(out, prefix)
		}
	}
	colset.SortSets(out)
	// Descending by size.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
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
	if r.noRetain {
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
	if r.promote != nil {
		r.promote(set, r.tempAggs[set], t)
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
