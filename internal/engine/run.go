package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gbmqo/internal/baseline"
	"gbmqo/internal/cache"
	"gbmqo/internal/catalog"
	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/cost"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/plan"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// Strategy selects how the logical plan for a grouping-sets request is built.
type Strategy int

// Strategies compared throughout §6. The zero value is GB-MQO, so requests
// default to the paper's optimizer.
const (
	// StrategyGBMQO runs the paper's hill-climbing optimizer.
	StrategyGBMQO Strategy = iota
	// StrategyNaive computes every query directly from the base relation.
	StrategyNaive
	// StrategyGroupingSets emulates the commercial GROUPING SETS plan.
	StrategyGroupingSets
	// StrategyExhaustive finds the optimal binary type-(b) plan (small inputs
	// only; §6.3).
	StrategyExhaustive
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyGroupingSets:
		return "groupingsets"
	case StrategyGBMQO:
		return "gbmqo"
	case StrategyExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ModelKind selects the cost model for optimizing strategies (§3.2).
type ModelKind int

// Cost models.
const (
	// ModelOptimizer is the what-if, physical-design-aware model (§3.2.2).
	ModelOptimizer ModelKind = iota
	// ModelCardinality is the |u|-per-edge model (§3.2.1).
	ModelCardinality
)

// Request describes one multi-Group-By computation.
type Request struct {
	// Table is the base relation name in the catalog.
	Table string
	// Sets are the required grouping sets (base column ordinals).
	Sets []colset.Set
	// Aggs are the aggregates (default COUNT(*)), shared by every set.
	Aggs []exec.Agg
	// PerSetAggs optionally assigns different aggregates per grouping set
	// (§7.2). Intermediate nodes then carry the union of the aggregates
	// their required descendants need (the paper's union method), and each
	// set's result is projected back to its own aggregates. Sets absent from
	// the map fall back to Aggs.
	PerSetAggs map[colset.Set][]exec.Agg
	// Strategy picks the planner.
	Strategy Strategy
	// Model picks the cost model for GB-MQO/exhaustive.
	Model ModelKind
	// Core forwards search options (pruning, binary restriction, cube/rollup,
	// storage budget). Model/NAggs/SizeFn fields are filled in by Run.
	Core core.Options
	// SharedScan enables the §5.1 shared-scan execution technique: sibling
	// Group Bys (consecutive schedule steps from one parent) run in one pass
	// over their common parent. Index fast paths and CUBE/ROLLUP nodes run
	// alone regardless.
	SharedScan bool
	// Parallel executes independent sub-plans (trees off the base relation)
	// concurrently, each with private temps, longest first. A run's
	// sub-plans and operator shares draw from one pool of GOMAXPROCS worker
	// tokens (see exec.NewRunGov), so at most GOMAXPROCS of them run at once.
	Parallel bool
	// Parallelism caps the shares inside one Group By operator: 0 = off,
	// negative = GOMAXPROCS. Inputs below the exec split floor (see
	// exec.ChooseKernel) and index fast paths stay sequential, and shares
	// beyond the first start only on idle tokens of the run's pool.
	Parallelism int
	// Context cancels or deadlines execution within one row block's worth of
	// work, dropping every temp table. Nil means context.Background().
	Context context.Context
	// MemBudget bounds the bytes of execution working state held at once
	// (hash and dense tables, accumulators, sort permutations, temps) with
	// graceful degradation recorded in ExecReport.Degradations; 0 means
	// unlimited. When a result cache is configured it participates in this
	// budget: the cache is shrunk to at most half the budget up front and its
	// residency is subtracted from what execution may use, so under pressure
	// cached results are evicted before operators degrade.
	MemBudget int64
	// UseCache serves and populates the engine's cross-query result cache for
	// this request (no-op when no cache is configured via SetCache). Tables
	// whose name carries the reserved "__" prefix — ephemeral derived tables —
	// always bypass the cache.
	UseCache bool
	// Retry bounds the engine's transient-failure retry loop for this request
	// (see fault.Policy). The zero value disables retries: the request gets
	// exactly one attempt, preserving historical semantics.
	Retry fault.Policy
	// NoRetain skips materializing intermediate temp tables; children
	// re-derive from the base relation via the same machinery the memory
	// budget uses (byte-identical results, more scan work). The retry
	// degradation ladder sets it so a fault in retention or promotion cannot
	// recur on the retry.
	NoRetain bool
	// AllowPartial opts this request into partial results under sharded
	// execution: when a shard is open or exhausts its retries, the coordinator
	// merges the surviving shards and attributes the gap in
	// ExecReport.ShardsFailed/ShardCoverage instead of failing the whole
	// request. Ignored (full results or error) when no shard router is
	// installed or the request is not sharded.
	AllowPartial bool
}

// RunResult bundles the chosen plan, its execution report, and search effort.
type RunResult struct {
	Plan     *plan.Plan
	Report   *ExecReport
	Search   core.SearchStats
	ModelUsd cost.Model
	// PlanCostSeq prices the chosen plan with the request's cost model — the
	// sequential cost the search minimized, whatever the request's
	// parallelism.
	PlanCostSeq float64
}

// Engine ties the catalog, statistics and executor into the public runtime.
type Engine struct {
	cat   *catalog.Catalog
	exec  *Executor
	cache *cache.Cache
	// runObs, when set, observes every Run outcome (see SetRunObserver). Held
	// in an atomic so installation never races with concurrent Run calls.
	runObs atomic.Pointer[func(*RunResult, error)]
	// breakers, when set, holds the per-table circuit breakers every Run
	// consults (see EnableBreakers). Atomic for the same reason as runObs.
	breakers atomic.Pointer[fault.Registry]
	// router, when set, is offered every attempt before local execution (see
	// SetShardRouter). Atomic for the same reason as runObs.
	router atomic.Pointer[ShardRouter]

	// appendMu serializes Append per engine: appends extend shared dictionary
	// and code backing in place, which is only safe when exactly one append
	// per lineage runs at a time and always extends the newest snapshot.
	appendMu sync.Mutex
	// appendObs, when set, observes every Append outcome (see
	// SetAppendObserver). Atomic for the same reason as runObs.
	appendObs atomic.Pointer[func(*AppendReport, error)]
}

// ShardRouter is the hook a sharded scatter-gather coordinator installs via
// SetShardRouter. It is offered every request after the table's circuit
// breaker admits it; returning handled=false declines the request (not
// sharded, unknown table, unsupported shape) and execution falls through to
// the engine's own attempt loop. When handled=true the router owns the whole
// execution — retries, hedging and partial-result policy included — and the
// engine only records the outcome against the table's breaker.
type ShardRouter func(Request) (*RunResult, error, bool)

// SetShardRouter installs (or, with nil, removes) the shard router consulted
// by every Run. Safe to call concurrently with in-flight runs.
func (e *Engine) SetShardRouter(fn ShardRouter) {
	if fn == nil {
		e.router.Store(nil)
		return
	}
	e.router.Store(&fn)
}

// New creates an engine over a fresh catalog with the given statistics
// service (nil selects GEE sampling with defaults).
func New(svc *stats.Service) *Engine {
	if svc == nil {
		svc = stats.NewService(stats.GEE, 0, 1)
	}
	cat := catalog.New(svc)
	return &Engine{cat: cat, exec: NewExecutor(cat)}
}

// Catalog exposes the engine's catalog (registration, indexes).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// SetCache installs (or, with nil, removes) the cross-query result cache.
// Requests opt in per call with Request.UseCache.
func (e *Engine) SetCache(c *cache.Cache) { e.cache = c }

// ResultCache returns the installed cross-query result cache (nil when none).
func (e *Engine) ResultCache() *cache.Cache { return e.cache }

// CostEnv builds a costing environment for a registered table, wiring in its
// current physical design.
func (e *Engine) CostEnv(tableName string) (*cost.Env, error) {
	t, ok := e.cat.Table(tableName)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", tableName)
	}
	return cost.NewEnv(t, e.cat.Stats(), e.cat.Indexes(tableName)), nil
}

// costing builds the costing environment over t (the snapshot of req.Table the
// caller resolved) and the cost model the request asks for. Naive needs no
// estimate to choose its plan, so it is sized and priced without building a
// statistic (cost.Env.Unprofiled).
func (e *Engine) costing(req Request, t *table.Table) (*cost.Env, cost.Model) {
	env := cost.NewEnv(t, e.cat.Stats(), e.cat.Indexes(req.Table))
	if req.Strategy == StrategyNaive {
		env = env.Unprofiled()
	}
	if req.Model == ModelCardinality {
		return env, cost.NewCardinality(env)
	}
	return env, cost.NewOptimizer(env, cost.Coefficients{})
}

// Plan builds the logical plan for a request without executing it, with the
// kernel of every node picked (see chooseKernels): a plan says what runs
// before anything does.
func (e *Engine) Plan(req Request) (*plan.Plan, core.SearchStats, cost.Model, error) {
	p, st, _, model, err := e.plan(req)
	return p, st, model, err
}

// plan is Plan, also returning the costing environment the plan was priced
// in, for sizing its nodes.
func (e *Engine) plan(req Request) (*plan.Plan, core.SearchStats, *cost.Env, cost.Model, error) {
	t, ok := e.cat.Table(req.Table)
	if !ok {
		return nil, core.SearchStats{}, nil, nil, fmt.Errorf("engine: unknown table %q", req.Table)
	}
	env, model := e.costing(req, t)
	nAggs := max(len(req.Aggs), 1)
	var p *plan.Plan
	var st core.SearchStats
	var err error
	switch req.Strategy {
	case StrategyNaive:
		p = baseline.Naive(req.Table, t.ColNames(), req.Sets)
	case StrategyGroupingSets:
		p = baseline.GroupingSets(req.Table, t.ColNames(), req.Sets)
	case StrategyExhaustive:
		p, st.FinalCost, err = core.ExhaustiveOptimize(req.Table, t.ColNames(), req.Sets, model, nAggs)
	case StrategyGBMQO:
		opts := req.Core
		opts.Model = model
		opts.NAggs = nAggs
		if opts.StorageBudget > 0 && opts.SizeFn == nil {
			opts.SizeFn = e.sizeFn(env, nAggs)
		}
		p, st, err = core.Optimize(req.Table, t.ColNames(), req.Sets, opts)
	default:
		return nil, core.SearchStats{}, nil, nil, fmt.Errorf("engine: unknown strategy %v", req.Strategy)
	}
	if err != nil {
		return p, st, env, model, err
	}
	chooseKernels(p, t, env, exec.ResolveWorkers(req.Parallelism))
	return p, st, env, model, nil
}

// chooseKernels writes on every node of p the kernel its scan runs, picked
// once by the one rule, exec.ChooseKernel, from the plan's own estimates. A
// node reads the base relation's rows or its parent's estimated groups; its
// own estimate comes from statistics already built, so picking never
// profiles (0 when none is built, and a parent without an estimate passes on
// its own input rows, the most groups it can produce). No budget applies
// here: the executor admits each pick when its node runs (exec.Admit).
func chooseKernels(p *plan.Plan, base *table.Table, env *cost.Env, workers int) {
	pick := func(set colset.Set, rows float64) (exec.KernelChoice, float64) {
		groups, _ := env.CachedNDV(set)
		c := pickKernel(base, set, int(rows), groups, workers)
		if groups > 0 {
			rows = groups
		}
		return c, rows
	}
	var walk func(n *plan.Node, rows float64)
	walk = func(n *plan.Node, rows float64) {
		var out float64
		n.Kernel, out = pick(n.Set, rows)
		if covered := plan.CoveredSets(n); len(covered) > 0 {
			n.Levels = make(map[colset.Set]exec.KernelChoice, len(covered))
			outs := map[colset.Set]float64{n.Set: out}
			for i := len(covered) - 2; i >= 0; i-- { // largest first; the last is n.Set
				s := covered[i]
				n.Levels[s], outs[s] = pick(s, outs[plan.CoveredParent(n, s)])
			}
		}
		for _, c := range n.Children {
			walk(c, out)
		}
	}
	for _, r := range p.Roots {
		walk(r, float64(base.NumRows()))
	}
}

// pickKernel runs the chooser for grouping base's set from an input of rows
// rows expected to hold groups groups. The dense domain is taken over the
// base columns, whose dictionaries a temp's group columns share.
func pickKernel(base *table.Table, set colset.Set, rows int, groups float64, workers int) exec.KernelChoice {
	cols := set.Columns()
	return exec.ChooseKernel(exec.ChooserInput{Rows: rows, GroupCols: len(cols), NDV: groups,
		DenseDomain: exec.DenseDomain(base, cols), Workers: workers})
}

// SetRunObserver installs fn to observe every Run outcome — the hook the
// observability registry uses to accumulate cross-request governance counters
// (rows scanned, degradations, cancellations) without threading a registry
// through every layer. fn must be safe for concurrent calls: Run may execute
// from many submitter goroutines at once. On failure fn receives (nil, err).
// A nil fn removes the observer.
func (e *Engine) SetRunObserver(fn func(*RunResult, error)) {
	if fn == nil {
		e.runObs.Store(nil)
		return
	}
	e.runObs.Store(&fn)
}

// Run plans and executes a request, serving it through the result cache when
// one is installed and the request opts in. When the request carries a retry
// policy, transient failures are retried with backoff down the degradation
// ladder; when breakers are enabled, the table's circuit breaker may fail the
// request — or stop its retries — with a *fault.OpenError.
func (e *Engine) Run(req Request) (*RunResult, error) {
	res, err := e.runWithRetry(req)
	if fn := e.runObs.Load(); fn != nil {
		(*fn)(res, err)
	}
	return res, err
}

// markOrigins attributes sets to origin in the report (lazily allocating the
// map), skipping sets already attributed.
func markOrigins(rep *ExecReport, sets []colset.Set, origin SetOrigin) {
	if rep.Origins == nil {
		rep.Origins = make(map[colset.Set]SetOrigin, len(sets))
	}
	for _, s := range sets {
		if _, done := rep.Origins[s]; !done {
			rep.Origins[s] = origin
		}
	}
}

// runDirect plans and executes a request without consulting the cache.
// promote, when non-nil, observes materialized temps as they are dropped
// (see Hooks.PromoteTemp); the cached path uses it to collect
// promotion candidates.
func (e *Engine) runDirect(req Request, promote func(colset.Set, []exec.Agg, *table.Table)) (*RunResult, error) {
	p, st, env, model, err := e.plan(req)
	if err != nil {
		return nil, err
	}
	nAggs := max(len(req.Aggs), 1)
	report, err := e.exec.ExecutePlanWith(p, req, e.sizeFn(env, nAggs), Hooks{PromoteTemp: promote})
	if err != nil {
		return nil, err
	}
	res := &RunResult{Plan: p, Report: report, Search: st, ModelUsd: model}
	res.PlanCostSeq = p.Cost(model, nAggs)
	return res, nil
}

// sizeFn estimates materialized node bytes from statistics for the §4.4
// scheduler and the storage-budget constraint.
func (e *Engine) sizeFn(env *cost.Env, nAggs int) plan.SizeFn {
	return func(s colset.Set) float64 {
		return env.NDV(s) * (env.Width(s) + 8*float64(nAggs))
	}
}
