package experiments

import (
	"fmt"
	"strings"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/engine"
)

// testScale keeps unit-test runtime modest while preserving the NDV/rowcount
// regime the experiments rely on.
func testScale() Scale {
	return Scale{TPCHSmall: 8000, TPCHLarge: 20_000, Sales: 8000, NRef: 8000, Seed: 3}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// GB-MQO must scan less than the commercial GROUPING SETS emulation on
	// both inputs (paper speedups: 4.5x SC, 1.03x CONT). The deterministic
	// work ratios are pinned to two decimals, so any plan change shows here.
	// The wall speedup is reported, not asserted: at unit-test scale each
	// plan runs in a few milliseconds, so its ratio is timing noise.
	want := map[string]string{"SC": "1.82", "CONT": "1.02"}
	for _, r := range res.Rows {
		if got := fmt.Sprintf("%.2f", r.WorkRatio); got != want[r.Query] {
			t.Errorf("%s work ratio = %s, want %s\n%s", r.Query, got, want[r.Query], res)
		}
	}
	if !strings.Contains(res.String(), "Table 2") {
		t.Error("render missing title")
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // 4 datasets × SC/TC
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// GB-MQO must reduce scan work everywhere (paper speedups: 1.9–4.5x).
	// The deterministic work ratios are pinned to two decimals, so any plan
	// change shows here; TC ratios are lower because pair NDVs approach the
	// row count at unit-test scale. The wall speedup is reported, not
	// asserted: each Group By takes a millisecond or two at this scale, so
	// its ratio is timing noise.
	want := map[string]string{
		"sales/SC": "1.98", "sales/TC": "1.36",
		"nref/SC": "1.41", "nref/TC": "1.17",
		"tpch-large/SC": "1.90", "tpch-large/TC": "1.51",
		"tpch-small/SC": "1.68", "tpch-small/TC": "1.35",
	}
	for _, r := range res.Rows {
		key := r.Dataset + "/" + r.Workload
		if got := fmt.Sprintf("%.2f", r.WorkRatio); got != want[key] {
			t.Errorf("%s work ratio = %s, want %s\n%s", key, got, want[key], res)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.GBMQOReduction < 0 || r.GBMQOReduction > 1 || r.OptimalReduction < 0 || r.OptimalReduction > 1 {
			t.Errorf("%s reductions out of range: %+v", r.Query, r)
		}
	}
	// Across ten queries GB-MQO must land close to optimal on average
	// (timing noise makes per-query comparison flaky).
	var mqo, opt float64
	for _, r := range res.Rows {
		mqo += r.GBMQOReduction
		opt += r.OptimalReduction
	}
	if mqo < opt-2.0 { // average gap under 20 points
		t.Errorf("GB-MQO far from optimal: sums %.2f vs %.2f", mqo, opt)
	}
}

func TestFigure10Shape(t *testing.T) {
	res, err := Figure10(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.Columns != 12*(i+1) {
			t.Errorf("row %d columns = %d", i, r.Columns)
		}
		if i > 0 && r.OptimizerCalls <= res.Rows[i-1].OptimizerCalls {
			t.Errorf("optimizer calls not growing: %d then %d", res.Rows[i-1].OptimizerCalls, r.OptimizerCalls)
		}
		if r.GBMQOScan >= r.NaiveScan {
			t.Errorf("width %d: GB-MQO scanned %d rows, naive %d", r.Columns, r.GBMQOScan, r.NaiveScan)
		}
	}
}

func TestSection65Shape(t *testing.T) {
	res, err := Section65(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// Rows scanned per plan, pinned so any plan change shows here.
	wantRows := map[string][2]int64{"tpch (sc)": {57168, 57168}, "sales (sc)": {60734, 60702}}
	for _, r := range res.Rows {
		// Binary restriction must reduce optimization work (paper: ~30%).
		if r.CallsBinary >= r.CallsAllTypes {
			t.Errorf("%s: binary calls %d >= all-types calls %d", r.Dataset, r.CallsBinary, r.CallsAllTypes)
		}
		// And plan quality must stay in the same ballpark (paper: execution
		// times within 10%), measured as rows scanned rather than wall time.
		if got := [2]int64{r.RowsAllTypes, r.RowsBinary}; got != wantRows[r.Dataset] {
			t.Errorf("%s: rows scanned (all, binary) = %v, want %v\n%s", r.Dataset, got, wantRows[r.Dataset], res)
		}
		if float64(r.RowsBinary) > 1.1*float64(r.RowsAllTypes) {
			t.Errorf("%s: binary plan scans %d rows, over 10%% more than the all-types plan's %d", r.Dataset, r.RowsBinary, r.RowsAllTypes)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	res, err := Figure11(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 { // 4 datasets × 4 configs
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]Figure11Row{}
	for _, r := range res.Rows {
		byKey[r.Dataset+"/"+r.Config] = r
	}
	for _, ds := range []string{"tpch (sc)", "tpch (tc)", "sales (sc)", "sales (tc)"} {
		none := byKey[ds+"/None"]
		both := byKey[ds+"/S+M"]
		if both.OptimizerCalls >= none.OptimizerCalls {
			t.Errorf("%s: S+M calls %d >= None calls %d", ds, both.OptimizerCalls, none.OptimizerCalls)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	res, err := Figure12(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]Figure12Row{}
	for _, r := range res.Rows {
		byKey[r.Dataset+"/"+r.Workload] = r
		if r.RowsProfiled <= 0 {
			t.Errorf("%s %s: no statistics profiled", r.Dataset, r.Workload)
		}
		if r.RowsSaved <= 0 {
			t.Errorf("%s %s: GB-MQO saved no rows over naive\n%s", r.Dataset, r.Workload, res)
		}
	}
	// The paper's claim is relative: "the statistics creation overhead
	// appears to become smaller as the dataset becomes larger". It is
	// asserted on deterministic work — sample rows profiled against rows
	// saved — because at test scale the wall-clock savings sit within timing
	// noise; the wall columns are reported, not asserted.
	for _, w := range []string{"SC", "TC"} {
		small, large := byKey["tpch-small/"+w], byKey["tpch-large/"+w]
		if large.WorkOverhead >= small.WorkOverhead {
			t.Errorf("%s work overhead did not shrink with scale: small %.1f%%, large %.1f%%\n%s",
				w, small.WorkOverhead*100, large.WorkOverhead*100, res)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	res, err := Figure13(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's shape: the advantage grows with skew (sparser columns merge
	// better). Asserted on the deterministic work ratio.
	first, last := res.Rows[0].WorkRatio, res.Rows[len(res.Rows)-1].WorkRatio
	if last <= first {
		t.Errorf("work ratio not growing with skew: z=0 %.2f, z=3 %.2f\n%s", first, last, res)
	}
}

func TestFigure14Shape(t *testing.T) {
	res, err := Figure14(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 { // clustered-only + 10 steps
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Run time falls as indexes arrive, asserted on the rows each step's plan
	// reads (index-only paths count index groups, not base rows): no step
	// reads more than the one before, and the full design reads less than
	// none.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].RowsScanned > res.Rows[i-1].RowsScanned {
			t.Errorf("step %s reads %d rows, more than the step before (%d)\n%s",
				res.Rows[i].Step, res.Rows[i].RowsScanned, res.Rows[i-1].RowsScanned, res)
		}
	}
	first, last := res.Rows[0].RowsScanned, res.Rows[len(res.Rows)-1].RowsScanned
	if last >= first {
		t.Errorf("full physical design reads %d rows, no fewer than none (%d)\n%s", last, first, res)
	}
	// Plan adaptation: once l_receiptdate has its own index (step 1), it
	// should become (and stay) a singleton.
	if !res.Rows[1].ReceiptDateSingleton {
		t.Errorf("receiptdate not singleton after its index\n%s", res)
	}
}

func TestFigure6Storage(t *testing.T) {
	res, err := Figure6(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.FormulaBF != 18 || res.FormulaDF != 20 {
		t.Fatalf("paper example: BF %.0f DF %.0f, want 18/20", res.FormulaBF, res.FormulaDF)
	}
	if res.MeasuredScheduled > res.MeasuredDepthFirst {
		t.Fatalf("scheduled peak %.0f exceeds depth-first peak %.0f", res.MeasuredScheduled, res.MeasuredDepthFirst)
	}
	if !strings.Contains(res.String(), "18") {
		t.Error("render missing formula value")
	}
}

// TestExample1PlanShape anchors the paper's Example 1: on the SC workload
// the chosen plan must (a) merge the correlated date columns into one
// materialized intermediate, (b) merge low-cardinality flag-like columns into
// another, and (c) compute the near-unique l_comment directly from the base
// table (no merge can help it).
func TestExample1PlanShape(t *testing.T) {
	s := testScale()
	li := lineitemSmall(s)
	e := newEngine(s.Seed)
	e.Catalog().Register(li)
	p, _, _, err := e.Plan(engine.Request{
		Table: li.Name(), Sets: singleSets(datagen.LineitemSC()),
		Strategy: engine.StrategyGBMQO, Core: prunedGBMQO(),
	})
	if err != nil {
		t.Fatal(err)
	}
	comment := colset.Of(datagen.LComment)
	dates := colset.Of(datagen.LShipDate, datagen.LCommitDate, datagen.LReceiptDate)
	lowCols := colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode,
		datagen.LShipInstruct, datagen.LQuantity, datagen.LLineNumber)

	var commentFromBase, datesMerged, lowMerged bool
	for _, r := range p.Roots {
		if r.Set == comment && len(r.Children) == 0 {
			commentFromBase = true
		}
		if r.Set.SubsetOf(dates) && r.Set.Len() >= 2 && r.IsIntermediate() {
			datesMerged = true
		}
		if r.Set.SubsetOf(lowCols) && r.Set.Len() >= 2 && r.IsIntermediate() {
			lowMerged = true
		}
	}
	if !commentFromBase {
		t.Errorf("l_comment not computed directly from base:\n%s", p)
	}
	if !datesMerged {
		t.Errorf("date columns not merged into an intermediate:\n%s", p)
	}
	if !lowMerged {
		t.Errorf("low-cardinality columns not merged:\n%s", p)
	}
}

func TestRendersNonEmpty(t *testing.T) {
	s := testScale()
	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.String()) == 0 {
		t.Fatal("empty render")
	}
}
