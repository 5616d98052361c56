package engine

import (
	"sync"
	"testing"

	"gbmqo/internal/cache"
	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// TestAncestorAfterAppendProfilesNothing: statistics survive an append. After
// 256 rows land on a 100 000-row table, a query answered by rolling up a
// cached ancestor is priced from the statistic built before the append:
// no sample is drawn, no row profiled, no statistic built, and the answer is
// a cold run's.
func TestAncestorAfterAppendProfilesNothing(t *testing.T) {
	e := New(stats.NewService(stats.GEE, 0, 1))
	e.Catalog().Register(datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 42}))
	e.SetCache(cache.New(cache.Config{MaxBytes: 64 << 20}))
	anc := colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode)
	q := colset.Of(datagen.LReturnFlag, datagen.LShipMode)
	if _, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{anc, q}, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append("lineitem", deltaRows(256, 7)); err != nil {
		t.Fatal(err)
	}
	before := e.Catalog().Stats().Accounting()
	warm, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{q}, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Cache.AncestorHits != 1 {
		t.Fatalf("query after the append: %+v, want one ancestor hit", warm.Report.Cache)
	}
	if acct := e.Catalog().Stats().Accounting(); acct != before {
		t.Fatalf("the ancestor roll-up after an append built statistics: %+v, was %+v", acct, before)
	}
	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{q}})
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, "ancestor-derived answer", warm.Report.Results[q], cold.Report.Results[q])
}

// TestStatsLedgerInterleaving: readers holding the current snapshot and
// older ones call NDV and CachedNDV while appends advance the lineage. Every
// answer stays within its own snapshot's rows, and the table keeps one
// ledger throughout. Run under -race -count=20 in CI.
func TestStatsLedgerInterleaving(t *testing.T) {
	e := New(stats.NewService(stats.GEE, 500, 1))
	e.Catalog().Register(datagen.Lineitem(datagen.LineitemOpts{Rows: 4_000, Seed: 42}))
	e.SetCache(cache.New(cache.Config{MaxBytes: 16 << 20}))
	svc := e.Catalog().Stats()
	sets := []colset.Set{
		colset.Of(datagen.LReturnFlag, datagen.LShipMode),
		colset.Of(datagen.LShipDate, datagen.LCommitDate),
		colset.Of(datagen.LPartKey, datagen.LSuppKey, datagen.LQuantity),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipInstruct),
	}
	check := func(label string, tb *table.Table, v float64) {
		if v < 1 || v > float64(tb.NumRows()) {
			t.Errorf("%s over %d rows: %v", label, tb.NumRows(), v)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			old, _ := e.Catalog().Table("lineitem")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cur, _ := e.Catalog().Table("lineitem")
				set := sets[(i+g)%len(sets)]
				for _, tb := range []*table.Table{cur, old} {
					check("NDV", tb, svc.NDV(tb, set))
					if v, ok := svc.CachedNDV(tb, set); ok {
						check("CachedNDV", tb, v)
					}
				}
				if i%7 == g {
					old = cur
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		if _, err := e.Append("lineitem", deltaRows(60, int64(i+1))); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := svc.Retained(); got != 1 {
		t.Fatalf("%d ledgers after the appends, want 1", got)
	}
}
