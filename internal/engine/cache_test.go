package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/catalog"
	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// newCachedEngine is newTestEngine plus a result cache.
func newCachedEngine(t *testing.T, rows int, maxBytes int64) (*Engine, *table.Table) {
	t.Helper()
	e, li := newTestEngine(t, rows)
	e.SetCache(cache.New(cache.Config{MaxBytes: maxBytes}))
	return e, li
}

// tablesIdentical compares two result tables cell for cell, including row
// order — the cache must be invisible, down to first-appearance ordering.
func tablesIdentical(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d",
			label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		gc, wc := got.Col(c), want.Col(c)
		if gc.Name() != wc.Name() {
			t.Fatalf("%s: col %d named %q, want %q", label, c, gc.Name(), wc.Name())
		}
		for r := 0; r < want.NumRows(); r++ {
			gv, wv := gc.Value(r), wc.Value(r)
			if gv.Null != wv.Null || gv.String() != wv.String() {
				t.Fatalf("%s: cell (%d,%s) = %v, want %v", label, r, gc.Name(), gv, wv)
			}
		}
	}
}

// TestCacheDifferentialRandomized proves cache-served answers — exact hits,
// ancestor re-aggregations, and mixed served/computed batches — byte-identical
// to cold computation, over randomized grouping sets and aggregate lists.
func TestCacheDifferentialRandomized(t *testing.T) {
	e, _ := newCachedEngine(t, 6000, 64<<20)
	rng := rand.New(rand.NewSource(7))
	scCols := datagen.LineitemSC()
	aggPool := [][]exec.Agg{
		nil, // executor default COUNT(*)
		{exec.CountStar(), {Kind: exec.AggSum, Col: datagen.LQuantity, Name: "sum_qty"}},
		{exec.CountStar(),
			{Kind: exec.AggMin, Col: datagen.LShipDate, Name: "min_sd"},
			{Kind: exec.AggMax, Col: datagen.LShipDate, Name: "max_sd"}},
	}
	randSet := func() colset.Set {
		n := 1 + rng.Intn(3)
		cols := make([]int, 0, n)
		for len(cols) < n {
			c := scCols[rng.Intn(len(scCols))]
			dup := false
			for _, x := range cols {
				dup = dup || x == c
			}
			if !dup {
				cols = append(cols, c)
			}
		}
		return colset.Of(cols...)
	}
	for trial := 0; trial < 12; trial++ {
		var sets []colset.Set
		seen := map[colset.Set]bool{}
		for len(sets) < 2+rng.Intn(3) {
			s := randSet()
			if !seen[s] {
				seen[s] = true
				sets = append(sets, s)
			}
		}
		req := Request{Table: "lineitem", Sets: sets, Aggs: aggPool[rng.Intn(len(aggPool))]}

		coldReq := req
		coldReq.UseCache = false
		cold, err := e.Run(coldReq)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		req.UseCache = true
		warm, err := e.Run(req)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		again, err := e.Run(req)
		if err != nil {
			t.Fatalf("trial %d again: %v", trial, err)
		}
		cc := warm.Report.Cache
		if cc.Hits+cc.AncestorHits+cc.Misses != len(sets) {
			t.Fatalf("trial %d: counters %+v do not cover %d sets", trial, cc, len(sets))
		}
		if again.Report.Cache.Hits != len(sets) {
			t.Fatalf("trial %d: repeat run hit %d of %d sets", trial, again.Report.Cache.Hits, len(sets))
		}
		for _, s := range sets {
			tablesIdentical(t, "warm vs cold "+s.String(), warm.Report.Results[s], cold.Report.Results[s])
			tablesIdentical(t, "repeat vs cold "+s.String(), again.Report.Results[s], cold.Report.Results[s])
		}
	}
}

// TestCacheAncestorReaggregation checks the lattice path end to end: a cached
// superset answers a strict-subset query by re-aggregation, the answer is
// byte-identical to cold computation, and the derived result is itself
// admitted so the next identical query is an exact hit.
func TestCacheAncestorReaggregation(t *testing.T) {
	e, _ := newCachedEngine(t, 6000, 64<<20)
	aggs := []exec.Agg{
		exec.CountStar(),
		{Kind: exec.AggSum, Col: datagen.LQuantity, Name: "sum_qty"},
		{Kind: exec.AggMin, Col: datagen.LShipDate, Name: "min_sd"},
	}
	super := colset.Of(datagen.LReturnFlag, datagen.LShipMode)
	sub := colset.Of(datagen.LShipMode)

	warm, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{super}, Aggs: aggs, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Cache.Misses != 1 || warm.Report.Cache.Admissions == 0 {
		t.Fatalf("priming run: %+v", warm.Report.Cache)
	}

	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: aggs, UseCache: false})
	if err != nil {
		t.Fatal(err)
	}
	derived, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: aggs, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if derived.Report.Cache.AncestorHits != 1 || derived.Report.Cache.Hits != 0 {
		t.Fatalf("derived run: %+v", derived.Report.Cache)
	}
	if derived.Report.RowsScanned != 0 {
		t.Fatalf("ancestor derivation scanned %d base rows", derived.Report.RowsScanned)
	}
	tablesIdentical(t, "derived vs cold", derived.Report.Results[sub], cold.Report.Results[sub])

	exact, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: aggs, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Report.Cache.Hits != 1 {
		t.Fatalf("derived result was not admitted: %+v", exact.Report.Cache)
	}
	tablesIdentical(t, "exact vs cold", exact.Report.Results[sub], cold.Report.Results[sub])
}

// TestCacheAvgNeverDerivedFromAncestor: AVG cannot be rolled up through an
// intermediate, so an AVG query must bypass the ancestor path (and still be
// correct and cacheable as an exact entry).
func TestCacheAvgNeverDerivedFromAncestor(t *testing.T) {
	e, li := newCachedEngine(t, 4000, 64<<20)
	aggs := []exec.Agg{{Kind: exec.AggAvg, Col: datagen.LQuantity, Name: "avg_qty"}}
	super := colset.Of(datagen.LReturnFlag, datagen.LLineStatus)
	sub := colset.Of(datagen.LReturnFlag)
	if _, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{super}, Aggs: aggs, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: aggs, UseCache: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: aggs, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cache.AncestorHits != 0 || res.Report.Cache.Misses != 1 {
		t.Fatalf("AVG query took the ancestor path: %+v", res.Report.Cache)
	}
	tablesIdentical(t, "avg", res.Report.Results[sub], cold.Report.Results[sub])
	_ = li
}

// TestCacheStampedeComputesOnce runs N identical requests concurrently
// against a cold cache and checks the whole stampede did one run's worth of
// scanning: every request is answered either by the singleflight leader's
// computation or by entries it admitted, never by recomputing.
func TestCacheStampedeComputesOnce(t *testing.T) {
	baseline, li := newTestEngine(t, 8000)
	sets := govSets()
	coldRun, err := baseline.Run(Request{Table: "lineitem", Sets: sets})
	if err != nil {
		t.Fatal(err)
	}
	coldScanned := coldRun.Report.RowsScanned
	if coldScanned == 0 {
		t.Fatal("baseline run scanned nothing")
	}

	e := New(stats.NewService(stats.Exact, 0, 1))
	e.Catalog().Register(li)
	e.SetCache(cache.New(cache.Config{MaxBytes: 64 << 20}))

	const n = 8
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [n]*RunResult
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = e.Run(Request{Table: "lineitem", Sets: sets, UseCache: true})
		}(i)
	}
	close(start)
	wg.Wait()

	var total int64
	shared := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		total += results[i].Report.RowsScanned
		if results[i].Report.Cache.FlightShared {
			shared++
		}
		assertResultsMatch(t, li, sets, results[i].Report.Results)
	}
	if total != coldScanned {
		t.Fatalf("stampede scanned %d rows total, one cold run scans %d (shared=%d)",
			total, coldScanned, shared)
	}
	if st := e.ResultCache().Snapshot(); st.FlightLeads < 1 {
		t.Fatalf("no flight leader recorded: %+v", st)
	}
}

// TestCacheInvalidationOnReregister: replacing the base table bumps its
// catalog version; stale entries must never serve and are swept.
func TestCacheInvalidationOnReregister(t *testing.T) {
	e, _ := newCachedEngine(t, 3000, 64<<20)
	sets := []colset.Set{colset.Of(datagen.LReturnFlag), colset.Of(datagen.LShipMode)}
	req := Request{Table: "lineitem", Sets: sets, UseCache: true}
	if _, err := e.Run(req); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Run(req); err != nil || res.Report.Cache.Hits != len(sets) {
		t.Fatalf("warm run: err=%v cache=%+v", err, res.Report.Cache)
	}

	li2 := datagen.Lineitem(datagen.LineitemOpts{Rows: 2000, Seed: 99})
	e.Catalog().Register(li2)

	res, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cache.Hits != 0 || res.Report.Cache.AncestorHits != 0 {
		t.Fatalf("stale entries served after table mutation: %+v", res.Report.Cache)
	}
	assertResultsMatch(t, li2, sets, res.Report.Results)
	if st := e.ResultCache().Snapshot(); st.Invalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", st)
	}
}

// TestCacheCancelNeverAdmitsPartial: a run cancelled mid-execution must
// surface the cancellation and leave the cache exactly as it was — nothing
// partially admitted (the admission happens only after a fully successful
// run).
func TestCacheCancelNeverAdmitsPartial(t *testing.T) {
	e, _ := newCachedEngine(t, 8000, 64<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && steps.Add(1) == 2 {
			cancel()
		}
	})
	defer exec.Testing.ClearFailPoint()

	_, err := e.Run(Request{Table: "lineitem", Sets: govSets(), Context: ctx, UseCache: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := e.ResultCache().Len(); n != 0 {
		t.Fatalf("cancelled run admitted %d cache entries", n)
	}
	if st := e.ResultCache().Snapshot(); st.Admissions != 0 {
		t.Fatalf("cancelled run recorded admissions: %+v", st)
	}

	// The same request must now compute cleanly and only then populate the
	// cache.
	exec.Testing.ClearFailPoint()
	res, err := e.Run(Request{Table: "lineitem", Sets: govSets(), UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cache.Admissions == 0 || e.ResultCache().Len() == 0 {
		t.Fatalf("clean rerun admitted nothing: %+v", res.Report.Cache)
	}
}

// TestCacheBudgetShrinksBeforeExecution: under a memory budget the cache
// yields residency first (to at most half the budget) and the run still
// completes correctly.
func TestCacheBudgetShrinksBeforeExecution(t *testing.T) {
	e, li := newCachedEngine(t, 8000, 64<<20)
	sets := govSets()
	if _, err := e.Run(Request{Table: "lineitem", Sets: sets, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	resident := e.ResultCache().Bytes()
	if resident == 0 {
		t.Fatal("warming run cached nothing")
	}

	// A budget whose half is below current residency forces evictions before
	// execution; disjoint sets so the run cannot be served from the cache.
	budget := resident // shrink target = resident/2 < resident
	other := []colset.Set{colset.Of(datagen.LShipInstruct), colset.Of(datagen.LLineNumber)}
	res, err := e.Run(Request{Table: "lineitem", Sets: other, MemBudget: budget, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cache.Evictions == 0 {
		t.Fatalf("no evictions under memory pressure: %+v", res.Report.Cache)
	}
	assertResultsMatch(t, li, other, res.Report.Results)
}

// TestCacheBypasses: UseCache=false and ephemeral ("__"-prefixed) source
// tables must never touch the cache.
func TestCacheBypasses(t *testing.T) {
	e, li := newCachedEngine(t, 2000, 64<<20)
	res, err := e.Run(Request{Table: "lineitem", Sets: govSets()[:2], UseCache: false})
	if err != nil {
		t.Fatal(err)
	}
	if (res.Report.Cache != CacheCounters{}) || e.ResultCache().Len() != 0 {
		t.Fatalf("UseCache=false touched the cache: %+v", res.Report.Cache)
	}

	eph := li.Project("__where_0", []int{datagen.LReturnFlag, datagen.LLineStatus})
	e.Catalog().Register(eph)
	res, err = e.Run(Request{Table: "__where_0", Sets: []colset.Set{colset.Of(0)}, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if (res.Report.Cache != CacheCounters{}) || e.ResultCache().Len() != 0 {
		t.Fatalf("ephemeral table touched the cache: %+v", res.Report.Cache)
	}
}

// residualKey is the one place that still enumerates request fields by hand:
// it decides which residual runs singleflight may collapse. These two lists
// account for every field of Request and core.Options (the latter as
// "Core.<field>"), so a new knob cannot be forgotten silently.
var (
	// residualKeyed fields enter the key: two requests differing in one of
	// them must not share a residual run.
	residualKeyed = []string{
		"Table", "Strategy", "Model", "SharedScan", "Parallel", "Parallelism", "MemBudget", "NoRetain",
		"Core.BinaryOnly", "Core.PruneSubsumption", "Core.PruneMonotonic", "Core.ConsiderCubeRollup",
		"Core.MaxCubeCols", "Core.StorageBudget",
		// Keyed through the missed-set list and AggsFor: the residual run covers
		// only the sets the cache could not serve, each with its own aggregates.
		"Sets", "Aggs", "PerSetAggs",
	}
	// residualExcluded fields are deliberately left out, each for its reason.
	residualExcluded = map[string]string{
		"Context":      "the leader's context governs the shared computation; followers only wait",
		"Retry":        "the attempt loop sits outside the flight and does not change one attempt's output",
		"UseCache":     "always true where the key is built; the residual sub-request forces it off",
		"AllowPartial": "read only by the shard router, which is offered the attempt before the cache path; a residual run is local and complete",
		"Core":         "accounted field by field as Core.<field>",
		"Core.Model":   "filled in by Plan from Request.Model, which is keyed",
		"Core.NAggs":   "filled in by Plan from the aggregates, which are keyed",
		"Core.SizeFn":  "filled in by Plan from statistics",
	}
)

// TestResidualKeyCoversEveryRequestField fails when Request or core.Options
// gains a field that is neither in the key nor excluded with a reason, and
// checks that every scalar keyed field really moves the key.
func TestResidualKeyCoversEveryRequestField(t *testing.T) {
	keyed := map[string]bool{}
	for _, f := range residualKeyed {
		keyed[f] = true
	}
	missed := []colset.Set{colset.Of(1), colset.Of(1, 2)}
	base := Request{Table: "t", Sets: missed}
	baseKey := residualKey(base, catalog.Epoch{}, missed)

	check := func(name string, perturb func(*Request) reflect.Value) {
		_, excluded := residualExcluded[name]
		switch {
		case keyed[name] && excluded:
			t.Errorf("%s is both keyed and excluded", name)
		case excluded:
			return
		case !keyed[name]:
			t.Errorf("%s is neither part of residualKey nor excluded with a reason: a request differing only in it would share a residual run", name)
			return
		}
		req := base
		v := perturb(&req)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			return // slices and maps: keyed through the missed list, see above
		}
		if residualKey(req, catalog.Epoch{}, missed) == baseKey {
			t.Errorf("%s is listed as keyed but changing it leaves residualKey unchanged", name)
		}
	}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		check(rt.Field(i).Name, func(r *Request) reflect.Value { return reflect.ValueOf(r).Elem().Field(i) })
	}
	ct := reflect.TypeOf(core.Options{})
	for i := 0; i < ct.NumField(); i++ {
		check("Core."+ct.Field(i).Name, func(r *Request) reflect.Value { return reflect.ValueOf(&r.Core).Elem().Field(i) })
	}
}

// probeOne probes a page of one: set s with req's aggregates.
func probeOne(e *Engine, req Request, s colset.Set) (*table.Table, SetOrigin, error) {
	out, err := e.Probe(req, []SetQuery{{Set: s, Aggs: req.AggsFor(s)}})
	if len(out) == 0 {
		return nil, OriginComputed, err
	}
	return out[0].Table, out[0].Origin, err
}

// TestProbeServesThroughTheRunsLookup: Probe answers exact hits and ancestor
// re-aggregations identically to a run, records a miss nowhere (the run that
// computes the set counts it once), and declines whenever a run could answer
// differently.
func TestProbeServesThroughTheRunsLookup(t *testing.T) {
	e, li := newCachedEngine(t, 6000, 64<<20)
	super := colset.Of(datagen.LReturnFlag, datagen.LShipMode)
	sub := colset.Of(datagen.LShipMode)
	req := Request{Table: "lineitem", UseCache: true}

	if got, _, err := probeOne(e, req, super); got != nil || err != nil {
		t.Fatalf("cold probe = %v, %v; want no answer", got, err)
	}
	warm := req
	warm.Sets = []colset.Set{super}
	res, err := e.Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.ResultCache().Snapshot(); st.Misses != 1 || res.Report.Cache.Misses != 1 {
		t.Fatalf("cache %+v, run %+v: want the run's one miss only", st, res.Report.Cache)
	}

	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{super, sub}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		set    colset.Set
		origin SetOrigin
	}{{super, OriginCacheHit}, {sub, OriginCacheAncestor}, {sub, OriginCacheHit}} {
		got, origin, err := probeOne(e, req, tc.set)
		if err != nil || origin != tc.origin {
			t.Fatalf("probe %s = origin %v, %v; want %v", tc.set, origin, err, tc.origin)
		}
		tablesIdentical(t, "probe "+tc.set.String(), got, cold.Report.Results[tc.set])
	}

	// Declines: a request that bypasses the cache, an ephemeral table, an
	// installed shard router, a breaker that is not closed, no cache at all.
	noCache := req
	noCache.UseCache = false
	eph := li.Project("__probe", []int{datagen.LShipMode})
	e.Catalog().Register(eph)
	declined := func(label string, e *Engine, req Request) {
		t.Helper()
		if got, _, err := probeOne(e, req, sub); got != nil || err != nil {
			t.Fatalf("%s: probe = %v, %v; want a decline", label, got, err)
		}
	}
	declined("UseCache=false", e, noCache)
	declined("ephemeral table", e, Request{Table: "__probe", UseCache: true})
	e.SetShardRouter(func(Request) (*RunResult, error, bool) { return nil, nil, false })
	declined("shard router", e, req)
	e.SetShardRouter(nil)
	e.EnableBreakers(fault.Config{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour})
	br := e.breakers.Load().Get("lineitem")
	br.Record(true)
	br.Record(true)
	declined("open breaker", e, req)
	e.DisableBreakers()
	plain, _ := newTestEngine(t, 100)
	declined("no cache", plain, req)
	if got, _, _ := probeOne(e, req, sub); got == nil {
		t.Fatal("probe declined once every skip condition was lifted")
	}
}
