package engine

import (
	"math/rand"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/index"
	"gbmqo/internal/plan"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// newTestEngine registers a small lineitem table.
func newTestEngine(t *testing.T, rows int) (*Engine, *table.Table) {
	t.Helper()
	e := New(stats.NewService(stats.Exact, 0, 1))
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: rows, Seed: 42})
	e.Catalog().Register(li)
	return e, li
}

// groupCounts computes the reference COUNT(*) map for a grouping set.
func groupCounts(t *table.Table, set colset.Set) map[string]int64 {
	cols := set.Columns()
	out := map[string]int64{}
	for i := 0; i < t.NumRows(); i++ {
		k := ""
		for _, c := range cols {
			v := t.Col(c).Value(i)
			k += "|" + v.String()
			if v.Null {
				k += "\x00"
			}
		}
		out[k]++
	}
	return out
}

// resultCounts extracts the COUNT map from a result table whose group columns
// are named like the base's.
func resultCounts(base, res *table.Table, set colset.Set) map[string]int64 {
	cols := set.Columns()
	out := map[string]int64{}
	cnt := res.ColByName("cnt")
	for i := 0; i < res.NumRows(); i++ {
		k := ""
		for _, c := range cols {
			col := res.ColByName(base.Col(c).Name())
			v := col.Value(i)
			k += "|" + v.String()
			if v.Null {
				k += "\x00"
			}
		}
		out[k] += cnt.Value(i).I
	}
	return out
}

func assertResultsMatch(t *testing.T, base *table.Table, sets []colset.Set, results map[colset.Set]*table.Table) {
	t.Helper()
	for _, set := range sets {
		res, ok := results[set]
		if !ok {
			t.Fatalf("no result for %s", set)
		}
		want := groupCounts(base, set)
		got := resultCounts(base, res, set)
		if len(got) != len(want) {
			t.Fatalf("set %s: %d groups, want %d", set, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("set %s group %q: count %d, want %d", set, k, got[k], w)
			}
		}
	}
}

func scSets() []colset.Set {
	var out []colset.Set
	for _, c := range datagen.LineitemSC() {
		out = append(out, colset.Of(c))
	}
	return out
}

func TestAllStrategiesProduceIdenticalResults(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	sets := scSets()[:7] // keep exhaustive feasible
	for _, strat := range []Strategy{StrategyNaive, StrategyGroupingSets, StrategyGBMQO, StrategyExhaustive} {
		res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		assertResultsMatch(t, li, sets, res.Report.Results)
	}
}

func TestGBMQOScansFewerRowsThanNaive(t *testing.T) {
	e, _ := newTestEngine(t, 20_000)
	sets := scSets()
	naive, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Report.RowsScanned >= naive.Report.RowsScanned {
		t.Fatalf("GB-MQO scanned %d rows, naive %d\n%s",
			opt.Report.RowsScanned, naive.Report.RowsScanned, opt.Plan)
	}
	if opt.Report.TempTables == 0 || opt.Report.PeakTempBytes <= 0 {
		t.Fatalf("expected materialized intermediates: %+v", opt.Report)
	}
	if naive.Report.TempTables != 0 {
		t.Fatal("naive plan materialized intermediates")
	}
}

func TestCONTWorkloadMatches(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	var sets []colset.Set
	for _, cols := range datagen.LineitemCONT() {
		sets = append(sets, colset.Of(cols...))
	}
	for _, strat := range []Strategy{StrategyGroupingSets, StrategyGBMQO} {
		res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		assertResultsMatch(t, li, sets, res.Report.Results)
	}
}

func TestIndexFastPathCorrectAndCheaper(t *testing.T) {
	e, li := newTestEngine(t, 10_000)
	set := colset.Of(datagen.LShipMode)
	before, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{set}, Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddIndex(index.Build(li, "ix_shipmode", []int{datagen.LShipMode}, false)); err != nil {
		t.Fatal(err)
	}
	after, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{set}, Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, []colset.Set{set}, after.Report.Results)
	if after.Report.RowsScanned >= before.Report.RowsScanned {
		t.Fatalf("index did not reduce rows scanned: %d vs %d",
			after.Report.RowsScanned, before.Report.RowsScanned)
	}
}

func TestIndexStreamPathCorrect(t *testing.T) {
	e, li := newTestEngine(t, 8000)
	// Index on (shipdate, shipmode): Group By (shipdate) is a prefix match.
	if err := e.Catalog().AddIndex(index.Build(li, "ix_sd_sm", []int{datagen.LShipDate, datagen.LShipMode}, false)); err != nil {
		t.Fatal(err)
	}
	set := colset.Of(datagen.LShipDate)
	res, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{set}, Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, []colset.Set{set}, res.Report.Results)
}

func TestMultipleAggregatesThroughPlan(t *testing.T) {
	e, li := newTestEngine(t, 6000)
	aggs := []exec.Agg{
		exec.CountStar(),
		{Kind: exec.AggSum, Col: datagen.LQuantity, Name: "sum_qty"},
		{Kind: exec.AggMin, Col: datagen.LShipDate, Name: "min_ship"},
		{Kind: exec.AggMax, Col: datagen.LShipDate, Name: "max_ship"},
	}
	sets := []colset.Set{
		colset.Of(datagen.LReturnFlag),
		colset.Of(datagen.LLineStatus),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus),
	}
	res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check one set against direct evaluation.
	direct := exec.GroupByHash(li, []int{datagen.LReturnFlag}, aggs, "direct")
	got := res.Report.Results[colset.Of(datagen.LReturnFlag)]
	if got.NumRows() != direct.NumRows() {
		t.Fatalf("group count %d vs %d", got.NumRows(), direct.NumRows())
	}
	byFlag := func(tb *table.Table) map[string][]table.Value {
		m := map[string][]table.Value{}
		for i := 0; i < tb.NumRows(); i++ {
			m[tb.ColByName("l_returnflag").Value(i).S] = []table.Value{
				tb.ColByName("cnt").Value(i),
				tb.ColByName("sum_qty").Value(i),
				tb.ColByName("min_ship").Value(i),
				tb.ColByName("max_ship").Value(i),
			}
		}
		return m
	}
	d, g := byFlag(direct), byFlag(got)
	for k, dv := range d {
		gv, ok := g[k]
		if !ok {
			t.Fatalf("flag %q missing", k)
		}
		for i := range dv {
			if !dv[i].Equal(gv[i]) {
				t.Fatalf("flag %q agg %d: %v vs %v", k, i, gv[i], dv[i])
			}
		}
	}
}

func TestCubePlanExecution(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	// Hand-build a CUBE plan over (returnflag, linestatus) and execute it.
	cub := plan.NewNode(colset.Of(datagen.LReturnFlag, datagen.LLineStatus), true)
	cub.Op = plan.OpCube
	a := plan.NewNode(colset.Of(datagen.LReturnFlag), true)
	b := plan.NewNode(colset.Of(datagen.LLineStatus), true)
	cub.Children = []*plan.Node{a, b}
	p := &plan.Plan{BaseName: "lineitem", ColNames: li.ColNames(), Roots: []*plan.Node{cub}}
	report, err := NewExecutor(e.Catalog()).ExecutePlanWith(p, Request{}, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	sets := []colset.Set{cub.Set, a.Set, b.Set}
	assertResultsMatch(t, li, sets, report.Results)
}

// TestCubeComputesCoveredChildOnce: a CUBE node's covered child comes out
// of the node's level-wise expansion; the schedule's compute step for it
// must not run it a second time from the node's temp.
func TestCubeComputesCoveredChildOnce(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	cub := plan.NewNode(colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode), true)
	cub.Op = plan.OpCube
	child := plan.NewNode(colset.Of(datagen.LReturnFlag, datagen.LLineStatus), true)
	cub.Children = []*plan.Node{child}
	p := &plan.Plan{BaseName: "lineitem", ColNames: li.ColNames(), Roots: []*plan.Node{cub}}
	report, err := NewExecutor(e.Catalog()).ExecutePlanWith(p, Request{}, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Kernels) != 7 || report.QueriesRun != 7 {
		t.Fatalf("%d kernel rows, QueriesRun %d; want 7 and 7 (one per covered set)", len(report.Kernels), report.QueriesRun)
	}
	seen := map[string]bool{}
	for _, k := range report.Kernels {
		if seen[k.Node] {
			t.Errorf("set %s computed twice", k.Node)
		}
		seen[k.Node] = true
	}
	assertResultsMatch(t, li, []colset.Set{cub.Set, child.Set}, report.Results)
}

func TestRollupPlanExecution(t *testing.T) {
	e, li := newTestEngine(t, 5000)
	roll := plan.NewNode(colset.Of(datagen.LReturnFlag, datagen.LLineStatus), true)
	roll.Op = plan.OpRollup
	roll.RollupOrder = []int{datagen.LReturnFlag, datagen.LLineStatus}
	a := plan.NewNode(colset.Of(datagen.LReturnFlag), true)
	roll.Children = []*plan.Node{a}
	p := &plan.Plan{BaseName: "lineitem", ColNames: li.ColNames(), Roots: []*plan.Node{roll}}
	report, err := NewExecutor(e.Catalog()).ExecutePlanWith(p, Request{}, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, []colset.Set{roll.Set, a.Set}, report.Results)
}

func TestGBMQOWithCubeRollupOptionStillCorrect(t *testing.T) {
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
		Core: core.Options{ConsiderCubeRollup: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

func TestCardinalityModelStrategy(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	sets := scSets()[:5]
	res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO, Model: ModelCardinality})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
	if res.ModelUsd.Name() != "cardinality" {
		t.Fatalf("model = %q", res.ModelUsd.Name())
	}
}

func TestStorageBudgetRequest(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	sets := scSets()[:6]
	res, err := e.Run(Request{
		Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO,
		Core: core.Options{StorageBudget: 1}, // ~nothing fits
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TempTables != 0 {
		t.Fatalf("budget ignored: %d temp tables", res.Report.TempTables)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

func TestRunErrors(t *testing.T) {
	e, _ := newTestEngine(t, 100)
	if _, err := e.Run(Request{Table: "nope", Sets: scSets()[:1]}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := e.Run(Request{Table: "lineitem", Sets: scSets()[:1], Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := e.exec.ExecutePlanWith(&plan.Plan{BaseName: "nope"}, Request{}, nil, Hooks{}); err == nil {
		t.Error("executor accepted unknown base")
	}
}

func TestQuickRandomWorkloadsAcrossStrategies(t *testing.T) {
	e, li := newTestEngine(t, 3000)
	r := rand.New(rand.NewSource(7))
	cands := datagen.LineitemSC()
	for trial := 0; trial < 6; trial++ {
		seen := map[colset.Set]bool{}
		var sets []colset.Set
		n := 2 + r.Intn(4)
		for len(sets) < n {
			var s colset.Set
			width := 1 + r.Intn(2)
			for s.Len() < width {
				s = s.Add(cands[r.Intn(len(cands))])
			}
			if !seen[s] {
				seen[s] = true
				sets = append(sets, s)
			}
		}
		for _, strat := range []Strategy{StrategyNaive, StrategyGroupingSets, StrategyGBMQO} {
			res, err := e.Run(Request{Table: "lineitem", Sets: sets, Strategy: strat})
			if err != nil {
				t.Fatalf("trial %d %v (%v): %v", trial, strat, sets, err)
			}
			assertResultsMatch(t, li, sets, res.Report.Results)
		}
	}
}

func TestStrategyAndModelStrings(t *testing.T) {
	names := map[Strategy]string{
		StrategyNaive: "naive", StrategyGroupingSets: "groupingsets",
		StrategyGBMQO: "gbmqo", StrategyExhaustive: "exhaustive",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}
