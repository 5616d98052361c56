package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/catalog"
	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
)

// publishSets is a small lattice over lineitem: two leaves under one
// superset, so an append both rolls entries forward and drops descendants.
func publishSets() []colset.Set {
	return []colset.Set{
		colset.Of(datagen.LReturnFlag),
		colset.Of(datagen.LShipMode),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus),
		colset.Of(datagen.LShipMode, datagen.LShipInstruct),
	}
}

func setQueries(sets []colset.Set) []SetQuery {
	qs := make([]SetQuery, len(sets))
	for i, s := range sets {
		qs[i] = SetQuery{Set: s, Aggs: mergeableAggs}
	}
	return qs
}

// TestAppendRefusesAMovedTable: a Register that replaces the table while an
// append is in flight wins. The append's swap is refused with a typed error
// and publishes nothing, instead of installing the old lineage plus the
// appended rows over the replacement.
func TestAppendRefusesAMovedTable(t *testing.T) {
	e, _ := newCachedEngine(t, 4000, 64<<20)
	if _, err := e.Run(Request{Table: "lineitem", Sets: publishSets(), Aggs: mergeableAggs, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	replacement := datagen.Lineitem(datagen.LineitemOpts{Rows: 10, Seed: 5})
	var once sync.Once
	exec.Testing.SetFailPoint(func(site string) {
		if site == "table.append" {
			once.Do(func() { e.Catalog().Register(replacement) })
		}
	})
	defer exec.Testing.ClearFailPoint()

	rep, err := e.Append("lineitem", deltaRows(5, 1))
	var moved *catalog.EpochMovedError
	if !errors.As(err, &moved) || rep != nil {
		t.Fatalf("append over a replaced table = (%+v, %v), want *catalog.EpochMovedError", rep, err)
	}
	got, ep, _ := e.Catalog().TableEpoch("lineitem")
	if got.NumRows() != 10 || ep != (catalog.Epoch{Version: 2}) {
		t.Fatalf("catalog holds %d rows at %+v, want the 10-row replacement at v2.0", got.NumRows(), ep)
	}
	if st := e.ResultCache().Snapshot(); st.Refreshes != 0 {
		t.Fatalf("a refused append published %d refreshed entries", st.Refreshes)
	}
}

// TestAppendProbeInsideSeesOldEpoch: a page probed while the append is rolling
// entries forward still reads the old epoch and gets only exact hits; after
// Append returns, every rolled entry is an exact hit at the new epoch.
func TestAppendProbeInsideSeesOldEpoch(t *testing.T) {
	e, _ := newCachedEngine(t, 4000, 64<<20)
	sets := publishSets()
	if _, err := e.Run(Request{Table: "lineitem", Sets: sets, Aggs: mergeableAggs, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	before := e.Catalog().Epoch("lineitem")
	page := Request{Table: "lineitem", UseCache: true}
	fires := 0
	exec.Testing.SetFailPoint(func(site string) {
		if site != "cache.refresh" {
			return
		}
		fires++
		if ep := e.Catalog().Epoch("lineitem"); ep != before {
			t.Errorf("mid-append the catalog shows %+v, want the old epoch %+v", ep, before)
		}
		out, err := e.Probe(page, setQueries(sets))
		if err != nil || len(out) != len(sets) {
			t.Errorf("mid-append probe = (%d answers, %v)", len(out), err)
			return
		}
		for i, p := range out {
			if p.Origin != OriginCacheHit {
				t.Errorf("mid-append probe of %s: origin %v, want an exact hit", sets[i], p.Origin)
			}
		}
	})
	rep, err := e.Append("lineitem", deltaRows(300, 21))
	exec.Testing.ClearFailPoint()
	if err != nil {
		t.Fatal(err)
	}
	if fires == 0 || rep.Refreshed != fires {
		t.Fatalf("%d entries rolled, %d refreshed", fires, rep.Refreshed)
	}

	rolled := e.ResultCache().ResidentsAt("lineitem", rep.Version, rep.Delta)
	if len(rolled) != rep.Refreshed {
		t.Fatalf("%d entries resident at the new epoch, %d refreshed", len(rolled), rep.Refreshed)
	}
	for _, r := range rolled {
		res, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{r.Set},
			PerSetAggs: map[colset.Set][]exec.Agg{r.Set: r.Aggs}, UseCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if c := res.Report.Cache; c.Misses != 0 || c.Hits != 1 {
			t.Fatalf("refreshed set %s after the append: %+v, want one exact hit", r.Set, c)
		}
	}
}

// TestAppendOldEpochReaderKeepsNewEntries: a reader that resolved the table
// before the append and sweeps with that epoch afterwards removes nothing
// the append published.
func TestAppendOldEpochReaderKeepsNewEntries(t *testing.T) {
	e, _ := newCachedEngine(t, 4000, 64<<20)
	req := Request{Table: "lineitem", Sets: publishSets(), Aggs: mergeableAggs, UseCache: true}
	if _, err := e.Run(req); err != nil {
		t.Fatal(err)
	}
	before := e.Catalog().Epoch("lineitem")
	rep, err := e.Append("lineitem", deltaRows(200, 22))
	if err != nil {
		t.Fatal(err)
	}
	if n := e.ResultCache().InvalidateBelow("lineitem", before.Version, before.Delta); n != 0 {
		t.Fatalf("a sweep at the old epoch evicted %d entries", n)
	}
	if got := len(e.ResultCache().ResidentsAt("lineitem", rep.Version, rep.Delta)); got != rep.Refreshed {
		t.Fatalf("%d entries resident at the new epoch, %d refreshed", got, rep.Refreshed)
	}
	res, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cache.Misses != 0 {
		t.Fatalf("post-append run missed: %+v", res.Report.Cache)
	}
}

// TestAppendPublishInterleaving runs page probes against a paced appender.
// Across the run no reader sweep evicts an entry of the epoch being
// maintained: every entry an append rolls forward is still resident when it
// is merged and is installed at the new epoch. Run under -race -count=20 in
// CI, where a lock-order inversion between cache and catalog would hang.
func TestAppendPublishInterleaving(t *testing.T) {
	e, _ := newCachedEngine(t, 2000, 64<<20)
	sets := publishSets()
	if _, err := e.Run(Request{Table: "lineitem", Sets: sets, Aggs: mergeableAggs, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	c := e.ResultCache()
	var (
		fires    atomic.Int64
		maint    catalog.Epoch // the epoch the running append leaves
		resident int           // its entries when the append started
	)
	// Only the appender's goroutine fires cache.refresh, so the hook reads
	// maint and resident on the goroutine that writes them.
	exec.Testing.SetFailPoint(func(site string) {
		if site != "cache.refresh" {
			return
		}
		fires.Add(1)
		if n := len(c.ResidentsAt("lineitem", maint.Version, maint.Delta)); n < resident {
			t.Errorf("a reader swept the epoch being maintained: %d of %d entries left", n, resident)
		}
	})
	defer exec.Testing.ClearFailPoint()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := Request{Table: "lineitem", UseCache: true}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Probe(page, setQueries(sets)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		maint = e.Catalog().Epoch("lineitem")
		resident = len(c.ResidentsAt("lineitem", maint.Version, maint.Delta))
		before := fires.Load()
		rep, err := e.Append("lineitem", deltaRows(40, int64(300+i)))
		if err != nil {
			t.Error(err)
			break
		}
		if rolled := fires.Load() - before; rolled == 0 || int64(rep.Refreshed) != rolled {
			t.Errorf("append %d: %d entries rolled forward, %d installed", i, rolled, rep.Refreshed)
		}
		time.Sleep(time.Millisecond) // pace the appends so probes land between them
	}
	close(stop)
	wg.Wait()
	if st := c.Snapshot(); st.Evictions != 0 || st.Corruptions != 0 {
		t.Fatalf("evictions %d, corruptions %d under a cache that fits the lattice", st.Evictions, st.Corruptions)
	}
}
