package gbmqo

import (
	"math"
	"testing"

	"gbmqo/internal/cache"
)

func openCachedLineitem(t *testing.T, rows int) *DB {
	t.Helper()
	db := Open(&Config{CacheBytes: 32 << 20})
	li, err := GenerateDataset("lineitem", rows, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(li)
	return db
}

var cacheAPIQueries = [][]string{
	{"l_returnflag"}, {"l_linestatus"}, {"l_returnflag", "l_linestatus"},
}

func TestCacheAPIExecuteHits(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	_, cold, err := db.Execute("lineitem", cacheAPIQueries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Hits != 0 || cold.Cache.Admissions == 0 {
		t.Fatalf("cold run counters: %+v", cold.Cache)
	}
	_, warm, err := db.Execute("lineitem", cacheAPIQueries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != len(cacheAPIQueries) {
		t.Fatalf("warm run hit %d of %d queries: %+v", warm.Cache.Hits, len(cacheAPIQueries), warm.Cache)
	}
	if warm.RowsScanned != 0 {
		t.Fatalf("warm run scanned %d rows", warm.RowsScanned)
	}
	st, ok := db.CacheStats()
	if !ok || st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("CacheStats = %+v, %v", st, ok)
	}
}

func TestCacheAPINoCacheBypass(t *testing.T) {
	db := openCachedLineitem(t, 2000)
	for i := 0; i < 2; i++ {
		_, rep, err := db.Execute("lineitem", cacheAPIQueries, QueryOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if (rep.Cache != CacheCounters{}) {
			t.Fatalf("NoCache run touched the cache: %+v", rep.Cache)
		}
	}
	if st, ok := db.CacheStats(); !ok || st.Entries != 0 {
		t.Fatalf("NoCache runs populated the cache: %+v, %v", st, ok)
	}
}

func TestCacheStatsWithoutCache(t *testing.T) {
	db := openWithLineitem(t, 100)
	if st, ok := db.CacheStats(); ok {
		t.Fatalf("CacheStats ok without a cache: %+v", st)
	}
	// And queries still work with caching requested but absent.
	if _, _, err := db.Execute("lineitem", cacheAPIQueries, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheAPISQLPath: repeated SQL statements hit the cache, and the answers
// stay identical; WHERE-filtered sources (ephemeral tables) bypass it safely.
func TestCacheAPISQLPath(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	q := `SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem
		GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))`
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.FormatRows(0) != again.FormatRows(0) {
		t.Fatal("cached SQL answer differs from cold answer")
	}
	st, ok := db.CacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("SQL path recorded no hits: %+v", st)
	}

	filtered := `SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_quantity > 25 GROUP BY l_shipmode`
	f1, err := db.Query(filtered)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := db.Query(filtered)
	if err != nil {
		t.Fatal(err)
	}
	if f1.FormatRows(0) != f2.FormatRows(0) {
		t.Fatal("filtered query answers differ across runs")
	}
}

// TestCacheAVGExactHitNeverAncestor: a cached AVG result answers the same
// query again as an exact hit, but never a coarser one by roll-up — an
// average of averages is wrong (the cache.Rollupable gate). A SUM entry over
// the same sets is the contrast: it does serve the coarser query.
func TestCacheAVGExactHitNeverAncestor(t *testing.T) {
	for _, kind := range []AggKind{AggAvg, AggSum} {
		db := openCachedLineitem(t, 4000)
		li, _ := db.Table("lineitem")
		agg := []Agg{{Kind: kind, Col: li.ColIndex("l_quantity"), Name: "q"}}
		fine := []GroupQuery{{Cols: []string{"l_returnflag", "l_linestatus"}, Aggs: agg}}
		coarse := []GroupQuery{{Cols: []string{"l_returnflag"}, Aggs: agg}}
		if _, _, err := db.ExecuteQueries("lineitem", fine, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		_, again, err := db.ExecuteQueries("lineitem", fine, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Cache.Hits != 1 {
			t.Errorf("%v: repeated query hit %+v, want one exact hit", kind, again.Cache)
		}
		_, rolled, err := db.ExecuteQueries("lineitem", coarse, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := kind == AggSum; (rolled.Cache.AncestorHits == 1) != want {
			t.Errorf("%v: coarser query served %+v, want an ancestor hit: %v", kind, rolled.Cache, want)
		}
		_, ref, err := db.ExecuteQueries("lineitem", coarse, QueryOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for set, got := range rolled.Results {
			if cache.ChecksumTable(got) != cache.ChecksumTable(ref.Results[set]) {
				t.Errorf("%v: coarser query's answer differs from an uncached run", kind)
			}
		}
	}
}

// TestSQLAvg: AVG is accepted by the SQL door, and a ROLLUP's grand total
// averages the base rows instead of rolling the groups' averages up.
func TestSQLAvg(t *testing.T) {
	db := openWithLineitem(t, 3000)
	res, err := db.Query("SELECT l_returnflag, AVG(l_quantity) FROM lineitem GROUP BY ROLLUP (l_returnflag)")
	if err != nil {
		t.Fatal(err)
	}
	li, _ := db.Table("lineitem")
	q := li.ColIndex("l_quantity")
	var sum float64
	for r := 0; r < li.NumRows(); r++ {
		sum += float64(li.Col(q).Value(r).I)
	}
	want := sum / float64(li.NumRows())
	tb := res
	flag, avg := tb.ColIndex("l_returnflag"), tb.ColIndex("avg_l_quantity")
	grand := 0
	for r := 0; r < tb.NumRows(); r++ {
		if !tb.Col(flag).Value(r).Null {
			continue
		}
		grand++
		if got := tb.Col(avg).Value(r).F; math.Abs(got-want) > 1e-9*want {
			t.Errorf("grand-total AVG = %v, want %v", got, want)
		}
	}
	if grand != 1 {
		t.Fatalf("%d grand-total rows, want 1:\n%s", grand, tb.FormatRows(10))
	}
}
