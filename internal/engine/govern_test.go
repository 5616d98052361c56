package engine

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// govSets is a small multi-level workload over low-NDV lineitem columns:
// overlapping sets that give GB-MQO intermediates to materialize and children
// to compute from them (the superset {returnflag, linestatus, shipmode,
// shipdate} is far smaller than the base relation, so materializing it pays).
func govSets() []colset.Set {
	return []colset.Set{
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode, datagen.LShipDate),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus),
		colset.Of(datagen.LLineStatus, datagen.LShipMode),
		colset.Of(datagen.LReturnFlag),
		colset.Of(datagen.LLineStatus),
		colset.Of(datagen.LShipMode),
	}
}

func assertSameResults(t *testing.T, a, b map[colset.Set]*table.Table) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("result count %d vs %d", len(a), len(b))
	}
	for set, ta := range a {
		tb, ok := b[set]
		if !ok {
			t.Fatalf("set %s missing from second run", set)
		}
		if ta.NumRows() != tb.NumRows() || ta.NumCols() != tb.NumCols() {
			t.Fatalf("set %s: shape %v vs %v", set, ta, tb)
		}
		for j := 0; j < ta.NumCols(); j++ {
			if ta.Col(j).Name() != tb.Col(j).Name() {
				t.Fatalf("set %s col %d: %q vs %q", set, j, ta.Col(j).Name(), tb.Col(j).Name())
			}
			for i := 0; i < ta.NumRows(); i++ {
				if !ta.Col(j).Value(i).Equal(tb.Col(j).Value(i)) {
					t.Fatalf("set %s row %d col %q: %v vs %v",
						set, i, ta.Col(j).Name(), ta.Col(j).Value(i), tb.Col(j).Value(i))
				}
			}
		}
	}
}

// TestCancelMidPlanDropsTempsAndCatalog verifies the cancellation contract:
// a context cancelled mid-plan (deterministically, at the third schedule
// step via the fault-injection hook) surfaces context.Canceled, marks the
// report Cancelled, returns every temp table's budget charge, and leaves the
// catalog exactly as it was.
func TestCancelMidPlanDropsTempsAndCatalog(t *testing.T) {
	e, _ := newTestEngine(t, 8000)
	before := append([]string(nil), e.Catalog().TableNames()...)
	sort.Strings(before)

	p, _, _, err := e.Plan(Request{Table: "lineitem", Sets: govSets()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && steps.Add(1) == 3 {
			cancel()
		}
	})
	defer exec.Testing.ClearFailPoint()

	report, err := e.exec.ExecutePlanWith(p, Request{Context: ctx}, nil, Hooks{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report == nil || !report.Cancelled {
		t.Fatalf("report = %+v, want Cancelled", report)
	}

	after := append([]string(nil), e.Catalog().TableNames()...)
	sort.Strings(after)
	if strings.Join(before, ",") != strings.Join(after, ",") {
		t.Fatalf("catalog changed by cancelled run: %v -> %v", before, after)
	}
}

// TestCancelBeforeStartViaRun checks the public path: Engine.Run with an
// already-cancelled context fails with context.Canceled before any work.
func TestCancelBeforeStartViaRun(t *testing.T) {
	e, _ := newTestEngine(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(Request{Table: "lineitem", Sets: govSets(), Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBudgetDegradedPlanIdenticalOutput is the differential acceptance test:
// a run under a budget too small for any hash table or temp table must still
// complete — via recorded sort fallbacks and re-derivations — with results
// byte-identical to the unbounded run.
func TestBudgetDegradedPlanIdenticalOutput(t *testing.T) {
	e, _ := newTestEngine(t, 8000)
	for _, shared := range []bool{false, true} {
		free, err := e.Run(Request{Table: "lineitem", Sets: govSets(), SharedScan: shared})
		if err != nil {
			t.Fatal(err)
		}
		tight, err := e.Run(Request{Table: "lineitem", Sets: govSets(), SharedScan: shared, MemBudget: 1})
		if err != nil {
			t.Fatalf("budgeted run failed instead of degrading (shared=%v): %v", shared, err)
		}
		if tight.Report.SpillFallbacks == 0 {
			t.Fatalf("shared=%v: no sort fallbacks under a 1-byte budget", shared)
		}
		if len(tight.Report.Degradations) == 0 {
			t.Fatalf("shared=%v: no degradations recorded", shared)
		}
		rederived := false
		for _, d := range tight.Report.Degradations {
			if d.Kind == DegradeRederive {
				rederived = true
			}
		}
		if !rederived {
			t.Fatalf("shared=%v: budget never skipped a temp table: %v", shared, tight.Report.Degradations)
		}
		if tight.Report.TempTables != 0 {
			t.Fatalf("shared=%v: %d temps materialized under a 1-byte budget", shared, tight.Report.TempTables)
		}
		assertSameResults(t, free.Report.Results, tight.Report.Results)
	}
}

// TestBudgetPeakMemMeasuredUnbounded: with no limit, execution still reports
// the high-water mark of governed memory.
func TestBudgetPeakMemMeasured(t *testing.T) {
	e, _ := newTestEngine(t, 4000)
	run, err := e.Run(Request{Table: "lineitem", Sets: govSets()})
	if err != nil {
		t.Fatal(err)
	}
	if run.Report.PeakMem <= 0 {
		t.Fatalf("PeakMem = %d, want > 0", run.Report.PeakMem)
	}
	if len(run.Report.Degradations) != 0 {
		t.Fatalf("unbounded run degraded: %v", run.Report.Degradations)
	}
}

// TestFaultStepPanicIsolated injects a panic at a schedule step and requires
// the ExecutePlanWith boundary to convert it into a typed *ExecError naming the
// step, with the catalog intact and the process alive.
func TestFaultStepPanicIsolated(t *testing.T) {
	e, _ := newTestEngine(t, 3000)
	before := len(e.Catalog().TableNames())
	p, _, _, err := e.Plan(Request{Table: "lineitem", Sets: govSets()})
	if err != nil {
		t.Fatal(err)
	}
	var steps atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && steps.Add(1) == 2 {
			panic("injected step failure")
		}
	})
	defer exec.Testing.ClearFailPoint()
	_, err = e.exec.ExecutePlanWith(p, Request{}, nil, Hooks{})
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v (%T), want *ExecError", err, err)
	}
	if !strings.Contains(ee.Step, "compute") {
		t.Fatalf("ExecError.Step = %q, want the failing schedule step", ee.Step)
	}
	if got := len(e.Catalog().TableNames()); got != before {
		t.Fatalf("catalog grew from %d to %d tables after panic", before, got)
	}
}

// TestFaultWorkerPanicSurfacesThroughEngine injects a panic into a parallel
// worker during a parallel plan execution and requires it to surface as a
// *ExecError carrying both the worker step and the plan node.
func TestFaultWorkerPanicSurfacesThroughEngine(t *testing.T) {
	e, _ := newTestEngine(t, 40000)
	p, _, _, err := e.Plan(Request{Table: "lineitem", Sets: govSets()})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "exec.share.worker" && fired.Add(1) == 2 {
			panic("injected worker bug")
		}
	})
	defer exec.Testing.ClearFailPoint()
	_, err = e.exec.ExecutePlanWith(p, Request{Parallelism: 4}, nil, Hooks{})
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v (%T), want *ExecError", err, err)
	}
	if !strings.Contains(ee.Step, "share worker") {
		t.Fatalf("ExecError.Step = %q, want a share worker", ee.Step)
	}
	if ee.Node == "" {
		t.Fatalf("ExecError.Node empty, want the failing plan node: %v", ee)
	}
}

// TestFaultPanicInParallelSubplans checks the Parallel (inter-sub-plan)
// goroutine boundary: a panic inside one concurrently-executing segment is
// recovered there and surfaces as a typed error, not a crash.
func TestFaultPanicInParallelSubplans(t *testing.T) {
	e, _ := newTestEngine(t, 5000)
	p, _, _, err := e.Plan(Request{Table: "lineitem", Sets: govSets(), Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	var steps atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && steps.Add(1) == 2 {
			panic("injected segment failure")
		}
	})
	defer exec.Testing.ClearFailPoint()
	_, err = e.exec.ExecutePlanWith(p, Request{Parallel: true}, nil, Hooks{})
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v (%T), want *ExecError", err, err)
	}
}

// TestCancelSharedScanMidPlan cancels during a shared-scan execution and
// checks the same contract holds on that path.
func TestCancelSharedScanMidPlan(t *testing.T) {
	e, _ := newTestEngine(t, 8000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var batches atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "exec.hash.batch" && batches.Add(1) == 2 {
			cancel()
		}
	})
	defer exec.Testing.ClearFailPoint()
	_, err := e.Run(Request{Table: "lineitem", Sets: govSets(), SharedScan: true, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
