package engine

import (
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/index"
)

func TestSharedScanResultsIdentical(t *testing.T) {
	e, li := newTestEngine(t, 6000)
	sets := scSets()
	for _, strat := range []Strategy{StrategyNaive, StrategyGBMQO} {
		plain, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: strat, SharedScan: true})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsMatch(t, li, sets, shared.Report.Results)
		if shared.Report.QueriesRun != plain.Report.QueriesRun {
			t.Fatalf("%v: shared scan changed query count: %d vs %d",
				strat, shared.Report.QueriesRun, plain.Report.QueriesRun)
		}
		if shared.Report.RowsScanned >= plain.Report.RowsScanned {
			t.Fatalf("%v: shared scan did not reduce rows scanned: %d vs %d",
				strat, shared.Report.RowsScanned, plain.Report.RowsScanned)
		}
	}
}

// TestSharedScanNaiveCollapsesToOneScan: a Naive plan's queries all read the
// base table, so one shared scan answers them, each on its chosen kernel.
func TestSharedScanNaiveCollapsesToOneScan(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	sets := scSets()
	res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyNaive, SharedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	// All 12 naive queries share one pass over the base table.
	if res.Report.RowsScanned != int64(li.NumRows()) {
		t.Fatalf("rows scanned = %d, want one base scan (%d)", res.Report.RowsScanned, li.NumRows())
	}
	// Sharing the scan keeps each query's kernel pick: the low-NDV sets
	// index a dense array instead of hashing.
	kinds := map[string]int{}
	for _, ku := range res.Report.Kernels {
		kinds[ku.Kernel]++
	}
	if kinds["dense"] == 0 {
		t.Fatalf("no shared-scan query ran dense: %v", kinds)
	}
}

func TestSharedScanSkipsIndexedQueries(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	if err := e.Catalog().AddIndex(index.Build(li, "ix_sm", []int{datagen.LShipMode}, false)); err != nil {
		t.Fatal(err)
	}
	sets := []colset.Set{
		colset.Of(datagen.LShipMode),   // indexed: must use the O(#groups) path
		colset.Of(datagen.LReturnFlag), // unindexed
		colset.Of(datagen.LLineStatus), // unindexed
	}
	res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyNaive, SharedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
	// One shared scan for the two unindexed queries + #groups for the indexed
	// one: strictly fewer rows than two full scans.
	if res.Report.RowsScanned >= 2*int64(li.NumRows()) {
		t.Fatalf("rows scanned = %d", res.Report.RowsScanned)
	}
}

func TestSharedScanWithMixedAggregates(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	sets := scSets()[:5]
	res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO, SharedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}
