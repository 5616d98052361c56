package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/catalog"
	"gbmqo/internal/colset"
	"gbmqo/internal/cost"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/plan"
	"gbmqo/internal/table"
)

// CacheCounters reports how the cross-query result cache served one request.
type CacheCounters struct {
	// Hits counts grouping sets answered from an exact cached entry.
	Hits int
	// AncestorHits counts sets answered by re-aggregating a cached lattice
	// ancestor (a superset grouping) instead of recomputing from base.
	AncestorHits int
	// Misses counts sets that had to be computed by the planner.
	Misses int
	// Admissions counts entries this request added to the cache (results,
	// promoted temp tables, and derived ancestor re-aggregations).
	Admissions int
	// FlightShared reports that this request's residual computation was
	// deduplicated onto a concurrent identical request — the work counters of
	// the report are then zero, because another run did the work.
	FlightShared bool
	// Refreshes is the cache's cumulative count of entries rolled forward by
	// append maintenance (Publish) after the request.
	Refreshes int64
	// Evictions is the cache's cumulative eviction count after the request;
	// Bytes and Entries are its residency after the request.
	Evictions int64
	Bytes     int64
	Entries   int
}

// cacheView is what one cache-served request reads the cache against: the
// table's snapshot and epoch, the cost model that prices ancestor
// re-aggregation (nil on a probe, which builds one only if an ancestor must
// be priced), and the working memory execution may still use after the
// cache's share of MemBudget.
type cacheView struct {
	base       *table.Table
	ep         catalog.Epoch
	model      cost.Model
	execBudget int64
}

// openCache is the prologue every cache-served request pays once: read the
// table's epoch, sweep entries that died with an older one, and shrink the
// cache into its share of the request's MemBudget. It builds no cost model:
// an exact hit prices nothing.
func (e *Engine) openCache(req Request) (cacheView, error) {
	base, ep, ok := e.cat.TableEpoch(req.Table)
	if !ok {
		return cacheView{}, fmt.Errorf("engine: unknown table %q", req.Table)
	}
	e.cache.InvalidateBelow(req.Table, ep.Version, ep.Delta)

	// MemBudget participation: the cache yields memory before operators
	// degrade. It is shrunk to at most half the budget up front, and whatever
	// it still holds is subtracted from what execution may use.
	v := cacheView{base: base, ep: ep, execBudget: req.MemBudget}
	if req.MemBudget > 0 {
		e.cache.ShrinkTo(req.MemBudget / 2)
		v.execBudget = req.MemBudget - e.cache.Bytes()
	}
	return v, nil
}

// serveSet answers grouping set s with aggregates aggs from the cache: an
// exact entry when one exists, else a re-aggregation of the cheapest cached
// lattice ancestor (a superset grouping, priced with the request's cost model
// exactly like the paper prices parent edges — the smallest-parent rule
// applied to the cache). It returns a nil table when the cache cannot answer.
// note records the lookup as demand for the set's key; a probe that leaves
// its misses to a later run passes false, so each miss is counted once.
// admissions counts the derived tables this call added to the cache.
func (e *Engine) serveSet(req Request, v cacheView, s colset.Set, aggs []exec.Agg, note bool) (t *table.Table, origin SetOrigin, admissions int, err error) {
	key := cache.KeyOf(req.Table, v.ep.Version, v.ep.Delta, s, aggs)
	get := e.cache.Recheck
	if note {
		get = e.cache.Get
	}
	if t, ok := get(key); ok {
		return t, OriginCacheHit, 0, nil
	}
	t, admissions, err = e.deriveFromAncestor(req, v, s, aggs)
	if err != nil || t == nil {
		return nil, OriginComputed, 0, err
	}
	return t, OriginCacheAncestor, admissions, nil
}

// servesFromCache reports whether a request goes through the result cache:
// one is configured, the request opts in, and the table is not an ephemeral
// derived one (reserved "__" prefix).
func (e *Engine) servesFromCache(req Request) bool {
	return e.cache != nil && req.UseCache && !strings.HasPrefix(req.Table, "__")
}

// SetQuery is one grouping set asked with its own aggregate list (never
// empty), as a page of Probe carries it.
type SetQuery struct {
	Set  colset.Set
	Aggs []exec.Agg
}

// Probed is Probe's answer to one query: the table and its origin
// (OriginCacheHit or OriginCacheAncestor), or a nil Table when the cache
// cannot answer it.
type Probed struct {
	Table  *table.Table
	Origin SetOrigin
}

// Probe answers a page of queries over req.Table from the result cache alone
// — exact hits and ancestor re-aggregations, through the same step runCached
// takes for every set — without planning, executing or waiting. The page
// pays the cache prologue once (one epoch read, one stale sweep, one shrink)
// and then looks each query up in order, so a later query can hit what an
// earlier one derived. A query the cache cannot answer, or whose derivation
// fails, gets a nil Table; a miss records no demand and no miss, because the
// run that computes the set counts it. Probe declines the whole page (nil,
// no error) whenever a run could answer differently: no cache or a request
// that bypasses it, an installed shard router, or a table breaker that is
// not closed (read from its snapshot, so no half-open slot is spent). A
// probe answer records no breaker outcome. Panics are contained as in
// runSafe.
func (e *Engine) Probe(req Request, qs []SetQuery) (out []Probed, err error) {
	if !e.servesFromCache(req) || e.router.Load() != nil ||
		e.breakers.Load().Get(req.Table).Snapshot().State != fault.StateClosed {
		return nil, nil
	}
	defer func() {
		if pnc := recover(); pnc != nil {
			out = nil
			err = &exec.ExecError{Step: "engine.probe", Err: exec.RecoveredPanic(pnc)}
		}
	}()
	v, err := e.openCache(req)
	if err != nil {
		return nil, err
	}
	out = make([]Probed, len(qs))
	for i, q := range qs {
		if t, origin, _, err := e.serveSet(req, v, q.Set, q.Aggs, false); err == nil && t != nil {
			out[i] = Probed{Table: t, Origin: origin}
		}
	}
	return out, nil
}

// runCached serves a request through the result cache: every requested
// grouping set that serveSet can answer is served from the cache, and only
// the remaining sets are planned and executed. The residual execution is
// deduplicated through singleflight so concurrent identical requests compute
// once, and on success its results and dropped temp tables are offered to the
// cache. Nothing is admitted on a cancelled or failed run.
func (e *Engine) runCached(req Request) (*RunResult, error) {
	start := time.Now()
	v, err := e.openCache(req)
	if err != nil {
		return nil, err
	}
	_, v.model = e.costing(req, v.base)

	var counters CacheCounters
	served := map[colset.Set]*table.Table{}
	origins := make(map[colset.Set]SetOrigin, len(req.Sets))
	var missed []colset.Set
	for _, s := range req.Sets {
		t, origin, admissions, err := e.serveSet(req, v, s, req.AggsFor(s), true)
		if err != nil {
			return nil, err
		}
		switch {
		case t == nil:
			e.cache.NoteMiss()
			counters.Misses++
			missed = append(missed, s)
			continue
		case origin == OriginCacheHit:
			counters.Hits++
		default:
			counters.AncestorHits++
			counters.Admissions += admissions
		}
		served[s] = t
		origins[s] = origin
	}

	var lead *residualOutcome
	if len(missed) > 0 {
		rkey := residualKey(req, v.ep, missed)
		sub := req
		sub.Sets = missed
		sub.UseCache = false
		sub.MemBudget = v.execBudget
		val, err, shared := e.cache.Do(req.Context, rkey, func() (any, error) {
			if hits := e.recheckResident(sub, v.ep); hits != nil {
				return &residualOutcome{resident: hits}, nil
			}
			return e.runResidual(sub, v.ep, v.model)
		})
		if err != nil {
			return nil, err
		}
		lead = val.(*residualOutcome)
		if lead.resident != nil {
			// A flight that ended between this request's lookups and its own
			// flight admitted every missed set: they are cache hits after all.
			for s, t := range lead.resident {
				served[s] = t
				origins[s] = OriginCacheHit
			}
			counters.Hits += len(missed)
			counters.Misses -= len(missed)
			missed, lead = nil, nil
		} else {
			counters.FlightShared = shared
			if !shared {
				counters.Admissions += lead.admissions
			}
		}
	}

	// Assemble a fresh report: the residual outcome is shared with concurrent
	// followers, so its maps are never mutated — results are copied out. A
	// follower's report carries only Results (the leader's report owns the
	// work counters, so totals across a stampede equal one cold run).
	report := &ExecReport{Results: make(map[colset.Set]*table.Table, len(req.Sets))}
	out := &RunResult{Report: report, ModelUsd: v.model}
	if lead != nil {
		if !counters.FlightShared {
			shallow := *lead.res.Report
			report = &shallow
			report.Results = make(map[colset.Set]*table.Table, len(req.Sets))
			out.Report = report
		}
		for s, t := range lead.res.Report.Results {
			report.Results[s] = t
		}
		out.Plan = lead.res.Plan
		out.Search = lead.res.Search
		out.PlanCostSeq = lead.res.PlanCostSeq
	} else {
		// Every set was served from the cache: an empty plan rooted at the
		// base relation, zero cost.
		out.Plan = &plan.Plan{BaseName: req.Table, ColNames: v.base.ColNames()}
	}
	for s, t := range served {
		report.Results[s] = t
	}
	missedOrigin := OriginComputed
	if counters.FlightShared {
		missedOrigin = OriginFlightShared
	}
	for _, s := range missed {
		origins[s] = missedOrigin
	}
	report.Origins = origins
	snap := e.cache.Snapshot()
	counters.Evictions = snap.Evictions
	counters.Refreshes = snap.Refreshes
	counters.Bytes = snap.Bytes
	counters.Entries = snap.Entries
	report.Cache = counters
	report.Wall = time.Since(start)
	return out, nil
}

// residualOutcome is what one singleflight residual computation produces: the
// leader's run result (shared read-only with followers) and how many cache
// admissions it made — or, when every residual set had become resident before
// the flight started, those cached tables instead of a run.
type residualOutcome struct {
	res        *RunResult
	admissions int
	resident   map[colset.Set]*table.Table
}

// recheckResident looks the residual sets up again from inside their flight.
// A request that missed the cache can reach the flight only after an
// identical request's flight has ended and admitted its results; without this
// second look it would compute them again. Returns nil unless every set is
// resident.
func (e *Engine) recheckResident(sub Request, ep catalog.Epoch) map[colset.Set]*table.Table {
	out := make(map[colset.Set]*table.Table, len(sub.Sets))
	for _, s := range sub.Sets {
		t, ok := e.cache.Recheck(cache.KeyOf(sub.Table, ep.Version, ep.Delta, s, sub.AggsFor(s)))
		if !ok {
			return nil
		}
		out[s] = t
	}
	return out
}

// runResidual plans and executes the not-cache-served grouping sets, then —
// only after the run has fully succeeded — offers its results and its dropped
// temp tables to the cache, each with an admission benefit equal to the cost
// of computing that set from the base relation. Collecting candidates during
// the run but admitting after it is what guarantees a cancelled or
// over-budget run never leaves a partially admitted entry.
func (e *Engine) runResidual(sub Request, ep catalog.Epoch, model cost.Model) (*residualOutcome, error) {
	type promo struct {
		set  colset.Set
		aggs []exec.Agg
		t    *table.Table
	}
	var mu sync.Mutex
	var promos []promo
	res, err := e.runDirect(sub, func(set colset.Set, aggs []exec.Agg, t *table.Table) {
		mu.Lock()
		promos = append(promos, promo{set: set, aggs: aggs, t: t})
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	outcome := &residualOutcome{res: res}
	for _, s := range sub.Sets {
		t := res.Report.Results[s]
		if t == nil {
			continue
		}
		aggs := sub.AggsFor(s)
		if e.offer(sub.Table, ep, s, aggs, t, model) {
			outcome.admissions++
		}
	}
	for _, p := range promos {
		if e.offer(sub.Table, ep, p.set, p.aggs, p.t, model) {
			outcome.admissions++
		}
	}
	return outcome, nil
}

// offer submits one table for admission, with benefit = the cost of computing
// its grouping set from the base relation (what a future exact hit saves). A
// result computed over an epoch the table has since left is not offered — the
// sweep would remove it immediately anyway, and skipping the admission avoids
// checksumming a table nobody can ever hit.
func (e *Engine) offer(tbl string, ep catalog.Epoch, s colset.Set, aggs []exec.Agg, t *table.Table, model cost.Model) bool {
	if e.cat.Epoch(tbl) != ep {
		return false
	}
	benefit := model.EdgeCost(cost.Edge{ParentIsBase: true, V: s, NAggs: len(aggs)})
	return e.cache.Offer(cache.KeyOf(tbl, ep.Version, ep.Delta, s, aggs), aggs, t, benefit)
}

// deriveFromAncestor answers one grouping set from the cheapest cached
// lattice ancestor, when re-aggregating that ancestor is cheaper than
// computing from the base relation under the request's cost model (an index
// fast path on base can beat a cached superset; the comparison decides).
// The derivation runs under singleflight so a stampede on the same missing
// set re-aggregates once, and the derived result is itself offered to the
// cache so the next request is an exact hit. Returns (nil, 0, nil) when no
// profitable ancestor exists. The view's cost model is built here when it
// has none, so a probe prices only what it re-aggregates. An ancestor is
// priced by its exact row count (cost.Edge.ParentRows), which its cached
// table holds, so no statistic is built for the ancestor's set.
func (e *Engine) deriveFromAncestor(req Request, v cacheView, s colset.Set, aggs []exec.Agg) (*table.Table, int, error) {
	base, ep := v.base, v.ep
	cands := e.cache.Ancestors(req.Table, ep.Version, ep.Delta, s, aggs)
	if len(cands) == 0 {
		return nil, 0, nil
	}
	model := v.model
	if model == nil {
		_, model = e.costing(req, base)
	}
	nAggs := len(aggs)
	baseCost := model.EdgeCost(cost.Edge{ParentIsBase: true, V: s, NAggs: nAggs})
	var best *cache.Ancestor
	var bestCost float64
	for i := range cands {
		c := model.EdgeCost(cost.Edge{Parent: cands[i].Set, ParentRows: float64(max(cands[i].Table.NumRows(), 1)), V: s, NAggs: nAggs})
		if c >= baseCost {
			continue
		}
		if best == nil || c < bestCost ||
			(c == bestCost && cands[i].Set.String() < best.Set.String()) {
			best, bestCost = &cands[i], c
		}
	}
	if best == nil {
		return nil, 0, nil
	}
	key := cache.KeyOf(req.Table, ep.Version, ep.Delta, s, aggs)
	admissions := 0
	val, err, shared := e.cache.Do(req.Context, "derive|"+key.String(), func() (any, error) {
		out, err := e.reaggregate(base, best.Table, s, aggs, req)
		if err != nil {
			return nil, err
		}
		e.cache.TouchAncestor(best.Key)
		if e.cache.Offer(key, aggs, out, baseCost) {
			admissions++
		}
		return out, nil
	})
	if err != nil {
		return nil, 0, err
	}
	if shared {
		admissions = 0
	}
	return val.(*table.Table), admissions, nil
}

// reaggregate computes GROUP BY s over a cached ancestor table through
// mapToParent — the same mapping the engine applies when computing a child
// from a temp table (§5.2) — on the kernel the chooser picks, as for a plan
// node, so the output (schema, values, and first-appearance row order) is
// identical to a cold computation.
func (e *Engine) reaggregate(base *table.Table, anc *table.Table, s colset.Set, aggs []exec.Agg, req Request) (*table.Table, error) {
	cols, rolled, err := mapToParent(base, anc, s, aggs)
	if err != nil {
		return nil, err
	}
	gov := exec.NewGov(req.Context, exec.NewMemBudget(0))
	out, _, err := exec.GroupByAdaptiveGov(gov, anc, cols, rolled, plan.TempName(s), exec.AdaptiveHints{})
	return out, err
}

// AggsFor returns the aggregates the request computes for one grouping set:
// its per-set override, the shared list, or the COUNT(*) default — mirroring
// the executor's defaulting so cache keys and shard merges match what
// execution produces.
func (req Request) AggsFor(s colset.Set) []exec.Agg {
	if a, ok := req.PerSetAggs[s]; ok && len(a) > 0 {
		return a
	}
	if len(req.Aggs) == 0 {
		return []exec.Agg{exec.CountStar()}
	}
	return req.Aggs
}

// residualKey canonicalizes everything that determines a residual run's
// output and side effects, so singleflight only collapses requests that are
// truly interchangeable. The caller's context is deliberately excluded: the
// leader's context governs the shared computation, each follower waits
// under its own, and a follower whose leader is cancelled leads again (see
// cache.Cache.Do).
func residualKey(req Request, ep catalog.Epoch, missed []colset.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run|%s@v%d.%d|%s|%d|ss%t|par%t|dop%d|mb%d|nr%t|core%t,%t,%t,%t,%d,%g",
		req.Table, ep.Version, ep.Delta, req.Strategy, req.Model, req.SharedScan, req.Parallel,
		req.Parallelism, req.MemBudget, req.NoRetain,
		req.Core.BinaryOnly, req.Core.PruneSubsumption, req.Core.PruneMonotonic,
		req.Core.ConsiderCubeRollup, req.Core.MaxCubeCols, req.Core.StorageBudget)
	for _, s := range missed {
		fmt.Fprintf(&b, "|%s:%s", s, cache.AggSignature(req.AggsFor(s)))
	}
	return b.String()
}
