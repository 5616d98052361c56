package engine

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/plan"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// TestReportAttributesKernels pins the per-node kernel attribution: a
// parallel run over a dense-eligible table must record one KernelUse per
// computed node with its wall time, pick the dense kernel for at least one
// base-level node, and annotate the returned plan with the kernel names.
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
		if ku.Kernel == "" || ku.Rows < 0 || ku.Wall <= 0 {
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
	// Hash state is sized from built statistics, and a Naive run builds
	// none: build them, so each pair's hash state is known to be small.
	for _, s := range sets {
		e.Catalog().Stats().NDV(tb, s)
	}
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

// TestPlanPicksEveryKernel: when Plan returns, every node of every
// strategy's plan carries its kernel and, where statistics were built, its
// estimated groups, and plain EXPLAIN renders the kernel.
func TestPlanPicksEveryKernel(t *testing.T) {
	e, _ := newTestEngine(t, 20000)
	for _, s := range []Strategy{StrategyGBMQO, StrategyNaive, StrategyGroupingSets, StrategyExhaustive} {
		p, _, _, err := e.Plan(Request{Table: "lineitem", Sets: govSets(), Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.Roots {
			r.Walk(func(n *plan.Node) {
				if n.Kernel.Reason == "" {
					t.Errorf("%v: node %s carries no kernel", s, n.Set)
				}
				if s == StrategyGBMQO && n.Kernel.Groups <= 0 {
					t.Errorf("%v: node %s carries no group estimate, though the search priced it", s, n.Set)
				}
			})
		}
		if !strings.Contains(p.String(), "<dense>") {
			t.Errorf("%v: EXPLAIN shows no kernel:\n%s", s, p)
		}
	}
}

// TestNaivePlanBuildsNoStatistic: Naive needs no estimate to choose its
// plan, so neither planning nor running a Naive request builds a statistic:
// kernels read only statistics already built, and the §4.4 schedule and the
// plan cost read them or the sandwich upper bound.
func TestNaivePlanBuildsNoStatistic(t *testing.T) {
	sets := []colset.Set{
		colset.Of(datagen.LShipDate, datagen.LCommitDate),
		colset.Of(datagen.LReturnFlag, datagen.LShipMode),
		colset.Of(datagen.LQuantity),
	}
	req := Request{Table: "lineitem", Sets: sets, Strategy: StrategyNaive}
	for _, est := range []stats.Estimator{stats.Exact, stats.GEE} {
		e := New(stats.NewService(est, 1000, 1))
		li := datagen.Lineitem(datagen.LineitemOpts{Rows: 20000, Seed: 42})
		e.Catalog().Register(li)
		if _, _, _, err := e.Plan(req); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsMatch(t, li, sets, res.Report.Results)
		if acct := e.Catalog().Stats().Accounting(); acct != (stats.Accounting{}) {
			t.Fatalf("%v: planning and running a Naive request built statistics: %+v", est, acct)
		}
		if res.PlanCostSeq <= 0 {
			t.Fatalf("%v: Naive plan priced at %v", est, res.PlanCostSeq)
		}
	}
}

// TestRederivedNodePicksAgain: a node that re-derives from the base
// relation reads an input the plan did not price, so its kernel is picked
// again for the base rows; every other node runs the plan's pick.
func TestRederivedNodePicksAgain(t *testing.T) {
	e, li := newTestEngine(t, 20000)
	res, err := e.Run(Request{Table: "lineitem", Sets: govSets(), NoRetain: true})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*plan.Node{}
	for _, r := range res.Plan.Roots {
		r.Walk(func(n *plan.Node) { nodes[n.Set.String()] = n })
	}
	rederived := 0
	for _, ku := range res.Report.Kernels {
		n := nodes[ku.Node]
		want := n.Kernel
		if ku.Rows == li.NumRows() && !slices.Contains(res.Plan.Roots, n) {
			want = pickKernel(li, n.Set, li.NumRows(), n.Kernel.Groups, 0)
			rederived++
		}
		if ku.Kernel != want.Kind.String() || ku.Reason != want.Reason {
			t.Errorf("%s ran %s (%s), want %s (%s)", ku.Node, ku.Kernel, ku.Reason, want.Kind, want.Reason)
		}
	}
	if rederived == 0 {
		t.Fatalf("no node re-derived from the base under NoRetain:\n%s", res.Plan)
	}
}

// TestCoveredLevelsRunPlannedKernels: a CUBE node's covered levels run the
// kernels the planner wrote in its Levels.
func TestCoveredLevelsRunPlannedKernels(t *testing.T) {
	e, li := newTestEngine(t, 20000)
	cube := plan.NewNode(colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode), true)
	cube.Op = plan.OpCube
	p := &plan.Plan{BaseName: "lineitem", ColNames: li.ColNames(), Roots: []*plan.Node{cube}}
	env, _ := e.CostEnv("lineitem")
	chooseKernels(p, li, env, 0)
	if len(cube.Levels) != 6 {
		t.Fatalf("cube over 3 columns has %d planned levels, want 6", len(cube.Levels))
	}
	rep, err := e.exec.ExecutePlanWith(p, Request{}, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ku := range rep.Kernels {
		want := cube.Kernel
		for s, c := range cube.Levels {
			if s.String() == ku.Node {
				want = c
			}
		}
		if ku.Kernel != want.Kind.String() || ku.EstGroups != want.Groups {
			t.Errorf("%s ran %s est %.0f, planned %s est %.0f", ku.Node, ku.Kernel, ku.EstGroups, want.Kind, want.Groups)
		}
	}
	if len(rep.Kernels) != 7 {
		t.Fatalf("%d kernel rows, want the node and its 6 levels", len(rep.Kernels))
	}
}
