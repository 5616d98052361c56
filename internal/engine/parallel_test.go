package engine

import (
	"runtime"
	"strings"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/datagen"
)

func TestParallelExecutionMatchesSequential(t *testing.T) {
	e, li := newTestEngine(t, 8000)
	sets := scSets()
	seq, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, par.Report.Results)
	if par.Report.RowsScanned != seq.Report.RowsScanned {
		t.Fatalf("parallel scanned %d rows, sequential %d", par.Report.RowsScanned, seq.Report.RowsScanned)
	}
	if par.Report.QueriesRun != seq.Report.QueriesRun {
		t.Fatalf("parallel ran %d queries, sequential %d", par.Report.QueriesRun, seq.Report.QueriesRun)
	}
	if par.Report.TempTables != seq.Report.TempTables {
		t.Fatalf("parallel made %d temps, sequential %d", par.Report.TempTables, seq.Report.TempTables)
	}
}

func TestParallelWithSharedScan(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	sets := scSets()
	res, err := e.Run(Request{
		Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO,
		Parallel: true, SharedScan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

func TestParallelNaive(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	sets := scSets()[:6]
	res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyNaive, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

func TestParallelWithCubePlan(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	var sets []colset.Set
	colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode).Subsets(func(s colset.Set) bool {
		if !s.IsEmpty() {
			sets = append(sets, s)
		}
		return true
	})
	res, err := e.Run(Request{
		Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO,
		Core:     core.Options{ConsiderCubeRollup: true},
		Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

// TestIntraOperatorParallelMatchesSequential checks the intra-operator parallel
// aggregation path end to end: same results, same scan/query accounting as
// the sequential engine, parallel counters populated, and the same plan cost
// (the sequential estimate governs plan choice at any parallelism). The one
// segment holds one of the run's GOMAXPROCS worker tokens, so shares run, at
// most GOMAXPROCS of them, exactly when a second token exists.
func TestIntraOperatorParallelMatchesSequential(t *testing.T) {
	e, li := newTestEngine(t, 40_000) // > 2 shares so base scans go parallel
	sets := scSets()
	seq, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, par.Report.Results)
	if par.Report.RowsScanned != seq.Report.RowsScanned {
		t.Fatalf("parallel scanned %d rows, sequential %d", par.Report.RowsScanned, seq.Report.RowsScanned)
	}
	if par.Report.QueriesRun != seq.Report.QueriesRun {
		t.Fatalf("parallel ran %d queries, sequential %d", par.Report.QueriesRun, seq.Report.QueriesRun)
	}
	if pool := runtime.GOMAXPROCS(0); pool == 1 {
		if par.Report.ParallelOps != 0 {
			t.Fatalf("a one-token pool started shares: ops=%d workers=%d", par.Report.ParallelOps, par.Report.MaxWorkers)
		}
	} else if par.Report.ParallelOps == 0 || par.Report.MaxWorkers < 2 || par.Report.MaxWorkers > pool {
		t.Fatalf("ops=%d workers=%d, want parallel operators with 2..%d workers", par.Report.ParallelOps, par.Report.MaxWorkers, pool)
	}
	if seq.Report.ParallelOps != 0 || seq.Report.MaxWorkers != 0 {
		t.Fatalf("sequential run reported parallel ops: %+v", seq.Report)
	}
	if par.PlanCostSeq != seq.PlanCostSeq {
		t.Fatalf("parallelism changed the chosen plan's cost: %v vs sequential %v", par.PlanCostSeq, seq.PlanCostSeq)
	}
}

// TestNestedParallelism exercises inter-sub-plan goroutines and
// intra-operator parallel workers at the same time (plus shared scans) — the
// nesting the race detector must bless in CI's `go test -race`. Whether an
// operator gets a spare token for shares depends on timing, so it asserts the
// pool's bound: no operator runs more shares than the pool has tokens.
func TestNestedParallelism(t *testing.T) {
	e, li := newTestEngine(t, 40_000)
	sets := scSets()
	for _, shared := range []bool{false, true} {
		res, err := e.Run(Request{
			Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO,
			Parallel: true, SharedScan: shared, Parallelism: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsMatch(t, li, sets, res.Report.Results)
		if pool := runtime.GOMAXPROCS(0); res.Report.MaxWorkers > pool {
			t.Fatalf("an operator ran %d shares on a pool of %d tokens", res.Report.MaxWorkers, pool)
		}
	}
}

func TestParallelRepeatedRunsDeterministicResults(t *testing.T) {
	e, li := newTestEngine(t, 3000)
	sets := scSets()[:8]
	for trial := 0; trial < 5; trial++ {
		res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsMatch(t, li, sets, res.Report.Results)
	}
}

// TestParallelSharedScanAttribution pins a parallel shared scan's per-node
// attribution: each sibling's kernel row carries its real group count and
// worker count, as a sequential shared scan's does. The scan's segment holds
// one of the run's GOMAXPROCS tokens, so it runs min(2, GOMAXPROCS) shares.
func TestParallelSharedScanAttribution(t *testing.T) {
	e, _ := newTestEngine(t, 40_000) // two shares of at least 16 384 rows
	sets := scSets()[:4]
	res, err := e.Run(Request{
		Table: "lineitem", Sets: sets, Strategy: StrategyNaive,
		SharedScan: true, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	uses := map[string]KernelUse{}
	for _, k := range res.Report.Kernels {
		uses[k.Node] = k
	}
	for _, s := range sets {
		k, ok := uses[s.String()]
		if !ok || !strings.HasPrefix(k.Reason, "shared scan") {
			t.Fatalf("%v: no shared-scan attribution row in %v", s, res.Report.Kernels)
		}
		if want := res.Report.Results[s].NumRows(); k.Groups != want {
			t.Errorf("%v: attributed %d groups, result has %d", s, k.Groups, want)
		}
		if want := min(2, runtime.GOMAXPROCS(0)); k.Workers != want {
			t.Errorf("%v: attributed %d workers, want %d", s, k.Workers, want)
		}
	}
}

// TestParallelHonoursNoRetain: concurrent sub-plans run under the request's
// NoRetain like the sequential schedule does — no temp table is kept, and
// every child re-derives from the base relation, so both scan the same rows.
func TestParallelHonoursNoRetain(t *testing.T) {
	e, li := newTestEngine(t, 20000)
	sets := govSets()
	seq, err := e.Run(Request{Table: "lineitem", Sets: sets, NoRetain: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Run(Request{Table: "lineitem", Sets: sets, NoRetain: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, par.Report.Results)
	if seq.Report.TempTables != 0 || par.Report.TempTables != 0 {
		t.Fatalf("NoRetain kept temps: sequential %d, parallel %d", seq.Report.TempTables, par.Report.TempTables)
	}
	if par.Report.RowsScanned != seq.Report.RowsScanned {
		t.Fatalf("parallel scanned %d rows, sequential %d", par.Report.RowsScanned, seq.Report.RowsScanned)
	}
}
