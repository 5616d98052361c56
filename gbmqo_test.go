package gbmqo

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gbmqo/internal/engine"
)

func openWithLineitem(t *testing.T, rows int) *DB {
	t.Helper()
	db := Open(nil)
	li, err := GenerateDataset("lineitem", rows, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(li)
	return db
}

func TestOpenAndRegister(t *testing.T) {
	db := openWithLineitem(t, 1000)
	if got := db.Tables(); len(got) != 1 || got[0] != "lineitem" {
		t.Fatalf("tables = %v", got)
	}
	if _, ok := db.Table("lineitem"); !ok {
		t.Fatal("table not resolvable")
	}
}

func TestQueryGroupingSets(t *testing.T) {
	db := openWithLineitem(t, 3000)
	res, err := db.Query(`SELECT l_returnflag, l_linestatus, COUNT(*)
		FROM lineitem
		GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 || res.ColIndex("grp_tag") < 0 {
		t.Fatalf("unexpected result shape: %v", res.ColNames())
	}
}

func TestQueryWithStrategiesAgree(t *testing.T) {
	db := openWithLineitem(t, 3000)
	q := `SELECT COUNT(*) FROM lineitem GROUP BY GROUPING SETS ((l_shipmode), (l_quantity), (l_shipmode, l_quantity))`
	counts := func(s Strategy) int {
		res, err := db.QueryWith(q, QueryOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.NumRows()
	}
	if a, b := counts(Naive), counts(GBMQO); a != b {
		t.Fatalf("row counts differ: naive %d, gbmqo %d", a, b)
	}
}

func TestOptimizeAndExplainSQL(t *testing.T) {
	db := openWithLineitem(t, 5000)
	queries := [][]string{
		{"l_returnflag"}, {"l_linestatus"}, {"l_shipinstruct"}, {"l_shipmode"}, {"l_quantity"},
	}
	p, st, err := db.Optimize("lineitem", queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalCost > st.NaiveCost {
		t.Fatalf("optimizer worsened the plan: %v > %v", st.FinalCost, st.NaiveCost)
	}
	stmts, err := db.ExplainSQL(p)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(stmts, "\n")
	if !strings.Contains(joined, "GROUP BY") {
		t.Fatalf("explain output:\n%s", joined)
	}
	// Low-NDV columns should merge, producing at least one temp table.
	if !strings.Contains(joined, "INTO tmp_gb_") {
		t.Fatalf("expected a materialized intermediate:\n%s", joined)
	}
}

func TestExecuteReturnsPerSetResults(t *testing.T) {
	db := openWithLineitem(t, 2000)
	_, report, err := db.Execute("lineitem", [][]string{{"l_returnflag"}, {"l_linestatus"}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 2 {
		t.Fatalf("results = %d sets", len(report.Results))
	}
}

// TestRegisteredResultGroupsByValue registers a DB.Execute result and groups
// it by its count column. Aggregate columns are emitted as measure columns,
// whose equal values do not share a code, so this only works because
// registration re-interns them: the answer must be one row per distinct
// count, each with how many keys had that count.
func TestRegisteredResultGroupsByValue(t *testing.T) {
	db := Open(nil)
	tb := NewTable("src", []ColumnDef{{Name: "k", Typ: Int64}})
	perKey := []int{3, 3, 3, 5, 5, 7, 1, 1, 1, 1}
	for k, n := range perKey {
		for i := 0; i < n; i++ {
			tb.AppendRow(IntVal(int64(k)))
		}
	}
	db.Register(tb)
	_, rep, err := db.Execute("src", [][]string{{"k"}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.Register(rep.Results[Cols(0)].Rename("kcounts"))
	res, err := db.Query(`SELECT cnt, COUNT(*) AS freq FROM kcounts GROUP BY cnt`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	for _, n := range perKey {
		want[int64(n)]++
	}
	if res.NumRows() != len(want) {
		t.Fatalf("GROUP BY cnt gave %d rows, want one per distinct count (%d)", res.NumRows(), len(want))
	}
	cnt, freq := res.ColByName("cnt"), res.ColByName("freq")
	for r := 0; r < res.NumRows(); r++ {
		if c, f := cnt.Value(r).I, freq.Value(r).I; f != want[c] {
			t.Errorf("count %d appears %d times, want %d", c, f, want[c])
		}
	}
}

func TestProfileDataQuality(t *testing.T) {
	db := Open(nil)
	cust, err := GenerateDataset("customer", 20_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(cust)
	rep, err := db.Profile("customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Columns) != cust.NumCols() {
		t.Fatalf("profiled %d columns", len(rep.Columns))
	}
	var state, mi *ColumnProfile
	for i := range rep.Columns {
		switch rep.Columns[i].Name {
		case "State":
			state = &rep.Columns[i]
		case "MI":
			mi = &rep.Columns[i]
		}
	}
	if state == nil || state.Distinct <= 50 {
		t.Fatalf("State profile should expose >50 distinct values: %+v", state)
	}
	if mi == nil || mi.NullFraction <= 0 {
		t.Fatalf("MI profile should expose NULLs: %+v", mi)
	}
	if !strings.Contains(rep.String(), "State") {
		t.Fatal("report rendering missing columns")
	}
}

func TestAlmostKey(t *testing.T) {
	db := Open(nil)
	cust, err := GenerateDataset("customer", 10_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(cust)
	distinct, rows, err := db.AlmostKey("customer", []string{"LastName", "FirstName", "MI", "Zip"})
	if err != nil {
		t.Fatal(err)
	}
	if distinct >= rows {
		t.Fatalf("expected almost-key (duplicates injected): %d combos, %d rows", distinct, rows)
	}
	if rows-distinct > rows/10 {
		t.Fatalf("too many duplicates for an almost-key: %d of %d", rows-distinct, rows)
	}
}

func TestCreateIndexAffectsPlans(t *testing.T) {
	db := openWithLineitem(t, 10_000)
	queries := [][]string{{"l_partkey"}}
	_, before, err := db.Execute("lineitem", queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("ix_partkey", "lineitem", []string{"l_partkey"}, false); err != nil {
		t.Fatal(err)
	}
	_, after, err := db.Execute("lineitem", queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.RowsScanned >= before.RowsScanned {
		t.Fatalf("index did not reduce scan: %d vs %d", after.RowsScanned, before.RowsScanned)
	}
	db.DropIndexes("lineitem")
}

// TestKernelMetricCountsEveryNode pins gbmqo_exec_kernel_total to the
// report: on a table with a clustered index, nodes served by the index fast
// paths count as kind "index", so the series sum over kinds equals the
// number of attributed plan nodes.
func TestKernelMetricCountsEveryNode(t *testing.T) {
	db := openWithLineitem(t, 10_000)
	if err := db.CreateIndex("ix_partkey", "lineitem", []string{"l_partkey"}, true); err != nil {
		t.Fatal(err)
	}
	_, rep, err := db.Execute("lineitem", [][]string{{"l_partkey"}, {"l_shipmode"}, {"l_returnflag", "l_linestatus"}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var indexNodes int
	for _, ku := range rep.Kernels {
		if strings.HasPrefix(ku.Kernel, "index-") {
			indexNodes++
		}
	}
	if indexNodes == 0 {
		t.Fatalf("no node took an index path: %v", rep.Kernels)
	}
	var sum float64
	for name, v := range db.Metrics() {
		if strings.HasPrefix(name, "gbmqo_exec_kernel_total{") {
			sum += v
		}
	}
	if int(sum) != len(rep.Kernels) {
		t.Fatalf("gbmqo_exec_kernel_total sums to %v over kinds, want %d plan nodes (%d on an index path)", sum, len(rep.Kernels), indexNodes)
	}
}

func TestRegisterCSVRoundTrip(t *testing.T) {
	db := Open(nil)
	csv := "a,b\n1,x\n2,y\n,z\n"
	tab, err := db.RegisterCSV("t", []ColumnDef{
		{Name: "a", Typ: Int64}, {Name: "b", Typ: String},
	}, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 || !tab.Col(0).IsNull(2) {
		t.Fatalf("CSV load wrong: %d rows", tab.NumRows())
	}
	res, err := db.Query("SELECT b, COUNT(*) FROM t GROUP BY b")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestErrors(t *testing.T) {
	db := Open(nil)
	if _, _, err := db.Optimize("missing", [][]string{{"a"}}, QueryOptions{}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := GenerateDataset("bogus", 10, 1, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := db.CreateIndex("ix", "missing", []string{"a"}, false); err == nil {
		t.Error("index on unknown table accepted")
	}
	li, _ := GenerateDataset("lineitem", 100, 1, 0)
	db.Register(li)
	if _, _, err := db.Optimize("lineitem", [][]string{{"nope"}}, QueryOptions{}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, _, err := db.AlmostKey("lineitem", []string{"nope"}); err == nil {
		t.Error("unknown key column accepted")
	}
	if _, err := db.ExplainSQL(&Plan{BaseName: "missing"}); err == nil {
		t.Error("explain of unknown base accepted")
	}
}

func TestExecuteQueriesPerSetAggs(t *testing.T) {
	db := openWithLineitem(t, 5000)
	li, _ := db.Table("lineitem")
	plan, rep, err := db.ExecuteQueries("lineitem", []GroupQuery{
		{Cols: []string{"l_returnflag"}, Aggs: []Agg{
			CountStar(),
			{Kind: AggSum, Col: li.ColIndex("l_quantity"), Name: "tq"},
		}},
		{Cols: []string{"l_linestatus"}},
		{Cols: []string{"l_returnflag", "l_linestatus"}},
	}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || len(rep.Results) != 3 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	flagRes := rep.Results[Cols(li.ColIndex("l_returnflag"))]
	if flagRes == nil || flagRes.ColIndex("tq") < 0 {
		t.Fatalf("per-set aggregate missing: %v", flagRes.ColNames())
	}
	statusRes := rep.Results[Cols(li.ColIndex("l_linestatus"))]
	if statusRes.ColIndex("tq") >= 0 {
		t.Fatalf("default-agg set leaked the union: %v", statusRes.ColNames())
	}
	// Totals must tie out.
	var total int64
	for i := 0; i < statusRes.NumRows(); i++ {
		total += statusRes.ColByName("cnt").Value(i).I
	}
	if total != int64(li.NumRows()) {
		t.Fatalf("counts sum to %d, want %d", total, li.NumRows())
	}
}

func TestExecuteQueriesErrors(t *testing.T) {
	db := Open(nil)
	if _, _, err := db.ExecuteQueries("missing", []GroupQuery{{Cols: []string{"a"}}}, QueryOptions{}); err == nil {
		t.Error("unknown table accepted")
	}
	li, _ := GenerateDataset("lineitem", 100, 1, 0)
	db.Register(li)
	if _, _, err := db.ExecuteQueries("lineitem", []GroupQuery{{Cols: []string{"nope"}}}, QueryOptions{}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestQueryOptionsPlumbed(t *testing.T) {
	db := openWithLineitem(t, 4000)
	res, err := db.QueryWith(
		`SELECT COUNT(*) FROM lineitem GROUP BY COMBI(2; l_returnflag, l_linestatus, l_shipmode)`,
		QueryOptions{BinaryOnly: true, UseCardinalityModel: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Table.NumRows() == 0 {
		t.Fatal("combi query produced nothing")
	}
}

// TestEntryPointsHonourEveryKnob pins that every entry point starts from the
// one QueryOptions → request mapping: the same options produce shared scans
// and parallel operators whichever door the query came through. Naive,
// so all four sets are siblings under the base table and one shared scan can
// hold them all; 40 000 rows, so the scan is above the parallel cutoff. A
// share beyond the first needs a spare token of the run's GOMAXPROCS-sized
// worker pool, so operators run parallel exactly when GOMAXPROCS > 1.
func TestEntryPointsHonourEveryKnob(t *testing.T) {
	db := openWithLineitem(t, 40000)
	dim := NewTable("modes", []ColumnDef{{Name: "mode", Typ: String}})
	for _, m := range []string{"AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"} {
		dim.AppendRow(StrVal(m))
	}
	db.Register(dim)

	opts := QueryOptions{Strategy: Naive, SharedScan: true, Parallelism: 2, NoCache: true}
	cols := [][]string{{"l_returnflag"}, {"l_linestatus"}, {"l_shipinstruct"}, {"l_returnflag", "l_linestatus"}}
	const sets = "GROUPING SETS ((l_returnflag), (l_linestatus), (l_shipinstruct), (l_returnflag, l_linestatus))"

	// The batching doors hand back tables only; the run observer sees the
	// report of the engine run behind them.
	var mu sync.Mutex
	var observed *ExecReport
	db.eng.SetRunObserver(func(res *engine.RunResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			observed = res.Report
		}
	})
	lastRun := func() *ExecReport {
		mu.Lock()
		defer mu.Unlock()
		return observed
	}
	check := func(door string, rep *ExecReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		if rep == nil {
			t.Errorf("%s: no execution report", door)
			return
		}
		shared := 0
		for _, k := range rep.Kernels {
			if strings.HasPrefix(k.Reason, "shared scan of") {
				shared++
			}
		}
		if shared != len(cols) || (rep.ParallelOps > 0) != (runtime.GOMAXPROCS(0) > 1) {
			t.Errorf("%s: %d of %d nodes ran as a shared scan, ParallelOps=%d; SharedScan and Parallelism were dropped on the way",
				door, shared, len(cols), rep.ParallelOps)
		}
	}

	_, rep, err := db.Execute("lineitem", cols, opts)
	check("Execute", rep, err)

	queries := make([]GroupQuery, len(cols))
	for i, c := range cols {
		queries[i] = GroupQuery{Cols: c}
	}
	_, rep, err = db.ExecuteQueries("lineitem", queries, opts)
	check("ExecuteQueries", rep, err)

	res, err := db.QueryWith("SELECT COUNT(*) FROM lineitem GROUP BY "+sets, opts)
	if err == nil {
		rep = res.Report
	}
	check("QueryWith grouping sets", rep, err)

	res, err = db.QueryWith("SELECT COUNT(*) FROM lineitem JOIN modes ON l_shipmode = mode GROUP BY "+sets, opts)
	if err == nil {
		rep = res.Report
	}
	check("QueryWith join push-down", rep, err)

	// One window of four distinct queries becomes one four-set batch.
	db.StartBatching(BatchOptions{MaxBatch: len(cols), MaxWait: 5 * time.Second, IdleWait: 5 * time.Second, Exec: opts})
	defer db.StopBatching()
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q GroupQuery) {
			defer wg.Done()
			_, _, errs[i] = db.Submit(context.Background(), "lineitem", q)
		}(i, q)
	}
	wg.Wait()
	for _, err = range errs {
		if err != nil {
			break
		}
	}
	check("Submit", lastRun(), err)

	// A WHERE filter is not batchable: SubmitSQL falls back to a solo run under
	// the batcher's execution options.
	_, err = db.SubmitSQL(context.Background(), "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 0 GROUP BY "+sets)
	check("SubmitSQL fallback", lastRun(), err)
}
