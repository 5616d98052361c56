package engine

import (
	"reflect"
	"strings"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// TestReportAttributesKernels pins the per-node kernel attribution: a
// parallel run over a dense-eligible table must record one KernelUse per
// computed node, pick the dense kernel for at least one base-level node, and
// annotate the returned plan with the kernel names.
func TestReportAttributesKernels(t *testing.T) {
	e, _ := newTestEngine(t, 70000)
	res, err := e.Run(Request{
		Table:       "lineitem",
		Sets:        govSets(),
		Strategy:    StrategyGBMQO,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Kernels) == 0 {
		t.Fatal("no kernel attribution recorded")
	}
	seen := map[string]string{}
	kinds := map[string]int{}
	for _, ku := range rep.Kernels {
		if prev, dup := seen[ku.Node]; dup {
			t.Errorf("node %s attributed twice (%s then %s)", ku.Node, prev, ku.Kernel)
		}
		seen[ku.Node] = ku.Kernel
		kinds[ku.Kernel]++
		if ku.Kernel == "" || ku.Rows < 0 {
			t.Errorf("malformed attribution %+v", ku)
		}
	}
	for _, set := range govSets() {
		if _, ok := seen[set.String()]; !ok {
			t.Errorf("required node %s has no kernel attribution", set)
		}
	}
	if kinds["dense"] == 0 {
		t.Errorf("no node ran the dense kernel over a 70k-row low-NDV table: %v", kinds)
	}
	planStr := res.Plan.String()
	if !strings.Contains(planStr, "<dense") && !strings.Contains(planStr, "<hash") {
		t.Errorf("plan not annotated with kernels:\n%s", planStr)
	}
}

// TestKernelSequentialLadder pins the chooser policy at the engine level
// without intra-operator parallelism: sequential nodes may run the dense
// kernel, and every node runs on exactly one worker. A budget too small for a
// node's dense array must record a kernel-fallback degradation and still
// answer exactly.
func TestKernelSequentialLadder(t *testing.T) {
	e, _ := newTestEngine(t, 70000)
	ref, err := e.Run(Request{Table: "lineitem", Sets: govSets(), Strategy: StrategyGBMQO})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ku := range ref.Report.Kernels {
		kinds[ku.Kernel]++
		if ku.Workers != 1 {
			t.Errorf("sequential run used %s with %d workers: %s", ku.Kernel, ku.Workers, ku)
		}
	}
	if kinds["dense"] == 0 {
		t.Errorf("no sequential node ran the dense kernel over a low-NDV table: %v", kinds)
	}

	tight, err := e.Run(Request{Table: "lineitem", Sets: govSets(), Strategy: StrategyGBMQO, MemBudget: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var sawFallback bool
	for _, d := range tight.Report.Degradations {
		if d.Kind == DegradeKernelFallback && strings.Contains(d.Detail, "dense kernel preferred") {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatalf("no dense kernel-fallback degradation under a 48KiB budget; got %v", tight.Report.Degradations)
	}
	assertSameResults(t, ref.Report.Results, tight.Report.Results)
}

// TestKernelFallbackDegradation pins the admission ladder: a budget too small
// for the dense kernel's per-worker arrays must record a kernel-fallback
// degradation and still complete on a lower rung with correct results.
// {l_shipdate, l_commitdate} is the multi-share dense pick: 840 groups leave
// 70 000 rows above the split floor at four shares, and its 15 367-slot
// domain needs five arrays, about 380 KiB.
func TestKernelFallbackDegradation(t *testing.T) {
	e, li := newTestEngine(t, 70000)
	sets := append(govSets(), colset.Of(datagen.LShipDate, datagen.LCommitDate))
	res, err := e.Run(Request{
		Table:       "lineitem",
		Sets:        sets,
		Strategy:    StrategyGBMQO,
		Parallelism: 4,
		MemBudget:   200 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawFallback bool
	for _, d := range res.Report.Degradations {
		if d.Kind == DegradeKernelFallback {
			sawFallback = true
			if !strings.Contains(d.Detail, "fell back to") {
				t.Errorf("fallback detail %q does not name the fallback rung", d.Detail)
			}
		}
	}
	if !sawFallback {
		t.Fatalf("no kernel-fallback degradation under a 200KiB budget; got %v", res.Report.Degradations)
	}
	// Results must match an unconstrained sequential run exactly.
	ref, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO})
	if err != nil {
		t.Fatal(err)
	}
	_ = li
	assertSameResults(t, ref.Report.Results, res.Report.Results)
}

// TestSharedScanRecordsKernelFallbacks: a shared scan reports the kernel
// chooser's budget-rejected preferences exactly as separate scans do. Three
// equal 300-value columns make every pair's dense domain (301² slots) too
// large for the budget but its hash state small, so each node records one
// dense kernel-fallback and runs hash, shared or not.
func TestSharedScanRecordsKernelFallbacks(t *testing.T) {
	tb := table.New("eq", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
		{Name: "c", Typ: table.TInt64},
	})
	for i := 0; i < 20000; i++ {
		v := table.Int(int64(i % 300))
		tb.AppendRow(v, v, v)
	}
	e := New(stats.NewService(stats.Exact, 0, 1))
	e.Catalog().Register(tb)
	sets := []colset.Set{colset.Of(0, 1), colset.Of(0, 2), colset.Of(1, 2)}
	for _, kib := range []int64{100, 200, 300} {
		runs := map[bool]*ExecReport{}
		for _, shared := range []bool{false, true} {
			res, err := e.Run(Request{Table: "eq", Sets: sets, Strategy: StrategyNaive,
				SharedScan: shared, MemBudget: kib << 10})
			if err != nil {
				t.Fatal(err)
			}
			assertResultsMatch(t, tb, sets, res.Report.Results)
			for _, ku := range res.Report.Kernels {
				if ku.Kernel != "hash" {
					t.Errorf("%d KiB, shared=%t: %s", kib, shared, ku)
				}
			}
			runs[shared] = res.Report
		}
		plain, shared := runs[false].Degradations, runs[true].Degradations
		if len(plain) != len(sets) || !reflect.DeepEqual(plain, shared) {
			t.Errorf("%d KiB: degradations differ\nunshared: %v\nshared:   %v", kib, plain, shared)
		}
	}
}
