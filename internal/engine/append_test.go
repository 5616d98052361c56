package engine

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// rowsOf extracts rows [lo,hi) of t as append-ready value slices.
func rowsOf(t *table.Table, lo, hi int) [][]table.Value {
	rows := make([][]table.Value, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := make([]table.Value, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			row[c] = t.Col(c).Value(r)
		}
		rows = append(rows, row)
	}
	return rows
}

// deltaRows generates n lineitem-shaped rows from an independent seed, so
// appends intern a mix of existing and brand-new dictionary values.
func deltaRows(n int, seed int64) [][]table.Value {
	src := datagen.Lineitem(datagen.LineitemOpts{Rows: n, Seed: seed})
	return rowsOf(src, 0, n)
}

var mergeableAggs = []exec.Agg{
	exec.CountStar(),
	{Kind: exec.AggSum, Col: datagen.LQuantity, Name: "sum_qty"},
	{Kind: exec.AggMin, Col: datagen.LShipDate, Name: "min_sd"},
	{Kind: exec.AggMax, Col: datagen.LShipDate, Name: "max_sd"},
}

// TestAppendRefreshRollsForward: cached mergeable entries survive an append
// via delta aggregation + merge — served at the new epoch without a miss, and
// byte-identical to recomputing over the appended table from scratch.
func TestAppendRefreshRollsForward(t *testing.T) {
	e, _ := newCachedEngine(t, 4000, 64<<20)
	// Neither set subsumes the other, so both are "finest ancestors" and both
	// must be refreshed eagerly.
	sets := []colset.Set{colset.Of(datagen.LReturnFlag), colset.Of(datagen.LShipMode)}
	req := Request{Table: "lineitem", Sets: sets, Aggs: mergeableAggs, UseCache: true}
	warm, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Cache.Admissions < len(sets) {
		t.Fatalf("priming admitted %d entries", warm.Report.Cache.Admissions)
	}

	rep, err := e.Append("lineitem", deltaRows(500, 99))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 500 || rep.TotalRows != 4500 {
		t.Fatalf("report rows = %d/%d", rep.Rows, rep.TotalRows)
	}
	if rep.Delta != 1 {
		t.Fatalf("append epoch delta = %d", rep.Delta)
	}
	// The priming run may also have cached the merged superset it used to
	// share the scan; that superset subsumes both requested sets, in which
	// case only it is refreshed and the descendants are lazy-dropped. Either
	// way: something rolled forward, nothing was left for the stale sweep.
	if rep.Refreshed < 1 || rep.Refreshed+rep.Dropped < len(sets) || rep.Invalidated != 0 {
		t.Fatalf("refreshed %d, dropped %d, invalidated %d over %d sets",
			rep.Refreshed, rep.Dropped, rep.Invalidated, len(sets))
	}

	again, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Report.Cache.Misses != 0 || again.Report.Cache.Hits+again.Report.Cache.AncestorHits != len(sets) {
		t.Fatalf("post-append run not served from maintained entries: %+v", again.Report.Cache)
	}
	coldReq := req
	coldReq.UseCache = false
	cold, err := e.Run(coldReq)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		tablesIdentical(t, "refreshed vs cold "+s.String(), again.Report.Results[s], cold.Report.Results[s])
	}
}

// TestAppendFinestAncestorLazyDrop: with a cached superset covering a cached
// subset, only the superset (the finest ancestor) is maintained eagerly; the
// subset is dropped, counted as pending lazy work, re-derived on demand from
// the refreshed ancestor, and the pending count drains when that happens.
func TestAppendFinestAncestorLazyDrop(t *testing.T) {
	e, _ := newCachedEngine(t, 4000, 64<<20)
	super := colset.Of(datagen.LReturnFlag, datagen.LShipMode)
	sub := colset.Of(datagen.LShipMode)
	req := Request{Table: "lineitem", Sets: []colset.Set{super, sub}, Aggs: mergeableAggs, UseCache: true}
	if _, err := e.Run(req); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Append("lineitem", deltaRows(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed != 1 || rep.Dropped != 1 {
		t.Fatalf("refreshed %d, dropped %d, want 1/1", rep.Refreshed, rep.Dropped)
	}
	as := e.AppendStats()["lineitem"]
	if as.Delta != 1 || as.PendingLazy != 1 || as.Rows != 4300 {
		t.Fatalf("append stats = %+v", as)
	}

	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: mergeableAggs})
	if err != nil {
		t.Fatal(err)
	}
	derived, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{sub}, Aggs: mergeableAggs, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if derived.Report.Cache.AncestorHits != 1 {
		t.Fatalf("dropped subset not re-derived from refreshed ancestor: %+v", derived.Report.Cache)
	}
	tablesIdentical(t, "lazy re-derivation", derived.Report.Results[sub], cold.Report.Results[sub])
	if got := e.AppendStats()["lineitem"].PendingLazy; got != 0 {
		t.Fatalf("pending lazy after re-derivation = %d", got)
	}
}

// TestAppendAvgInvalidates: AVG accumulator state is not mergeable across
// segments, so cached AVG entries fall back to invalidation — and the next
// query recomputes correctly over the appended table.
func TestAppendAvgInvalidates(t *testing.T) {
	e, _ := newCachedEngine(t, 3000, 64<<20)
	aggs := []exec.Agg{{Kind: exec.AggAvg, Col: datagen.LQuantity, Name: "avg_qty"}}
	set := colset.Of(datagen.LReturnFlag)
	req := Request{Table: "lineitem", Sets: []colset.Set{set}, Aggs: aggs, UseCache: true}
	if _, err := e.Run(req); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Append("lineitem", deltaRows(200, 13))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed != 0 || rep.Invalidated == 0 {
		t.Fatalf("AVG entry not invalidated: %+v", rep)
	}

	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{set}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Cache.Misses != 1 || warm.Report.Cache.Hits != 0 {
		t.Fatalf("stale AVG entry served after append: %+v", warm.Report.Cache)
	}
	tablesIdentical(t, "avg after append", warm.Report.Results[set], cold.Report.Results[set])
}

// TestAppendChainDifferential drives several appends with warm queries in
// between and checks every answer against a cold engine holding the same
// final state — the repeatedly rolled-forward entries never drift.
func TestAppendChainDifferential(t *testing.T) {
	e, _ := newCachedEngine(t, 2000, 64<<20)
	sets := []colset.Set{
		colset.Of(datagen.LReturnFlag),
		colset.Of(datagen.LShipMode, datagen.LLineStatus),
	}
	req := Request{Table: "lineitem", Sets: sets, Aggs: mergeableAggs, UseCache: true}
	if _, err := e.Run(req); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		rep, err := e.Append("lineitem", deltaRows(150, int64(100+step)))
		if err != nil {
			t.Fatalf("append %d: %v", step, err)
		}
		if rep.Delta != uint64(step+1) {
			t.Fatalf("append %d epoch delta = %d", step, rep.Delta)
		}
		warm, err := e.Run(req)
		if err != nil {
			t.Fatalf("query %d: %v", step, err)
		}
		coldReq := req
		coldReq.UseCache = false
		cold, err := e.Run(coldReq)
		if err != nil {
			t.Fatalf("cold %d: %v", step, err)
		}
		for _, s := range sets {
			tablesIdentical(t, "chain step "+s.String(), warm.Report.Results[s], cold.Report.Results[s])
		}
	}
}

// TestAppendValidationLeavesStateIntact: malformed rows (bad arity, bad type),
// unknown tables and reserved names error out before any shared state is
// touched — the table, its epoch, and the cached entries all keep working.
func TestAppendValidationLeavesStateIntact(t *testing.T) {
	e, li := newCachedEngine(t, 1000, 64<<20)
	set := colset.Of(datagen.LReturnFlag)
	req := Request{Table: "lineitem", Sets: []colset.Set{set}, Aggs: mergeableAggs, UseCache: true}
	if _, err := e.Run(req); err != nil {
		t.Fatal(err)
	}

	short := deltaRows(1, 1)[0][:3]
	if _, err := e.Append("lineitem", [][]table.Value{short}); err == nil || !strings.Contains(err.Error(), "values, want") {
		t.Fatalf("arity error = %v", err)
	}
	bad := deltaRows(1, 1)[0]
	bad[datagen.LQuantity] = table.Str("not-a-quantity")
	if _, err := e.Append("lineitem", [][]table.Value{bad}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := e.Append("nope", deltaRows(1, 1)); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := e.Append("__scratch", nil); err == nil {
		t.Fatal("reserved table accepted")
	}

	cur, ep, ok := e.Catalog().TableEpoch("lineitem")
	if !ok || cur != li || ep.Delta != 0 {
		t.Fatalf("failed appends disturbed the catalog: ep=%+v same=%v", ep, cur == li)
	}
	again, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Report.Cache.Hits != 1 {
		t.Fatalf("failed appends disturbed the cache: %+v", again.Report.Cache)
	}
}

// TestAppendEmptyIsNoop: zero rows is a valid call that advances nothing.
func TestAppendEmptyIsNoop(t *testing.T) {
	e, _ := newCachedEngine(t, 500, 64<<20)
	rep, err := e.Append("lineitem", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 0 || rep.Delta != 0 || rep.Refreshed != 0 {
		t.Fatalf("empty append report = %+v", rep)
	}
	if ep := e.Catalog().Epoch("lineitem"); ep.Delta != 0 {
		t.Fatalf("empty append bumped the epoch: %+v", ep)
	}
}

// TestAppendDropsStaleStats: statistics built over the pre-append snapshot
// are reclaimed by the append sweep instead of lingering until table drop.
func TestAppendDropsStaleStats(t *testing.T) {
	e, li := newCachedEngine(t, 1500, 64<<20)
	// Force NDV statistics to be built over the current snapshot.
	_ = e.Catalog().Stats().NDV(li, colset.Of(datagen.LReturnFlag))
	if got := e.Catalog().Stats().Retained(); got != 1 {
		t.Fatalf("retained before append = %d", got)
	}
	if _, err := e.Append("lineitem", deltaRows(100, 3)); err != nil {
		t.Fatal(err)
	}
	if got := e.Catalog().Stats().Retained(); got != 0 {
		t.Fatalf("stale snapshot statistics retained after append: %d", got)
	}
}

// TestAppendObserver: the observer sees every outcome — reports on success,
// the error on failure.
func TestAppendObserver(t *testing.T) {
	e, _ := newCachedEngine(t, 500, 64<<20)
	var mu sync.Mutex
	var reps []*AppendReport
	var errs []error
	e.SetAppendObserver(func(rep *AppendReport, err error) {
		mu.Lock()
		defer mu.Unlock()
		reps = append(reps, rep)
		errs = append(errs, err)
	})
	if _, err := e.Append("lineitem", deltaRows(50, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append("nope", nil); err == nil {
		t.Fatal("unknown table accepted")
	}
	e.SetAppendObserver(nil)
	if _, err := e.Append("lineitem", deltaRows(10, 6)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reps) != 2 {
		t.Fatalf("observer saw %d calls, want 2", len(reps))
	}
	if reps[0] == nil || reps[0].Rows != 50 || errs[0] != nil {
		t.Fatalf("success call = (%+v, %v)", reps[0], errs[0])
	}
	if reps[1] != nil || errs[1] == nil {
		t.Fatalf("failure call = (%+v, %v)", reps[1], errs[1])
	}
}

// TestAppendQueryEvictChurnRace is the rapid-churn stress: concurrent
// appenders, warm queriers and cache shrinkers against a deliberately tiny
// cache. Run under -race. Invariants: no errors, no checksum corruptions,
// and once the churn settles the warm path agrees byte-for-byte with a cold
// recompute of the final state.
func TestAppendQueryEvictChurnRace(t *testing.T) {
	e, _ := newCachedEngine(t, 1500, 192<<10)
	sets := []colset.Set{
		colset.Of(datagen.LReturnFlag),
		colset.Of(datagen.LShipMode),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus),
		colset.Of(datagen.LShipMode, datagen.LShipInstruct),
	}
	const (
		appends     = 8
		queriers    = 4
		queryRounds = 12
	)
	var wg sync.WaitGroup
	errCh := make(chan error, appends+queriers*queryRounds)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, err := e.Append("lineitem", deltaRows(60, int64(i))); err != nil {
				errCh <- err
			}
		}
	}()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(q)))
			for i := 0; i < queryRounds; i++ {
				s := sets[rng.Intn(len(sets))]
				req := Request{Table: "lineitem", Sets: []colset.Set{s},
					Aggs: mergeableAggs, UseCache: true}
				if _, err := e.Run(req); err != nil {
					errCh <- err
				}
				if i%4 == 3 {
					e.ResultCache().ShrinkTo(64 << 10)
				}
			}
		}(q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("churn error: %v", err)
	}

	st := e.ResultCache().Snapshot()
	if st.Corruptions != 0 {
		t.Fatalf("checksum corruptions during churn: %d", st.Corruptions)
	}
	req := Request{Table: "lineitem", Sets: sets, Aggs: mergeableAggs}
	cold, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	req.UseCache = true
	if _, err := e.Run(req); err != nil { // repopulate at the final epoch
		t.Fatal(err)
	}
	warm, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		tablesIdentical(t, "post-churn "+s.String(), warm.Report.Results[s], cold.Report.Results[s])
	}
}
