package sql

import (
	"math/rand"
	"strings"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, COUNT(*) FROM t WHERE x >= 10 AND s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if texts[0] != "SELECT" || texts[1] != "a" {
		t.Fatalf("texts = %v", texts)
	}
	// The escaped string must decode.
	found := false
	for i, k := range kinds {
		if k == tokString && texts[i] == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped string not decoded: %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT A, COUNT(*) FROM T GROUP BY A",
		"SELECT A, B, COUNT(*) AS N FROM T GROUP BY GROUPING SETS ((A), (B), (A, B))",
		"SELECT COUNT(*) FROM T GROUP BY CUBE(A, B)",
		"SELECT COUNT(*) FROM T GROUP BY ROLLUP(A, B, C)",
		"SELECT COUNT(*) FROM T GROUP BY COMBI(2; A, B, C)",
		"SELECT SUM(X) AS SX, MIN(Y) FROM T WHERE A > 5 AND B = 'Z' GROUP BY C",
		"SELECT COUNT(*) FROM R JOIN S ON A = B GROUP BY C",
		"SELECT * FROM T",
	}
	for _, q := range queries {
		ast, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		// Canonical print must re-parse to an identical print (fixpoint).
		printed := ast.String()
		ast2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse %q: %v", printed, err)
		}
		if ast2.String() != printed {
			t.Fatalf("print not a fixpoint:\n%q\n%q", printed, ast2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT a FROM",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t GROUP BY",
		"SELECT a FROM t GROUP BY GROUPING SETS ()",
		"SELECT a FROM t GROUP BY GROUPING SETS (())",
		"SELECT a FROM t GROUP BY CUBE()",
		"SELECT a FROM t GROUP BY COMBI(0; a)",
		"SELECT a FROM t GROUP BY COMBI(a; b)",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ~ 3",
		"SELECT a FROM t WHERE a =",
		"SELECT a FROM t JOIN s ON a b",
		"SELECT a FROM t extra",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

// newSQLEngine registers a small synthetic table.
func newSQLEngine(t *testing.T) (*engine.Engine, *table.Table) {
	t.Helper()
	eng := engine.New(stats.NewService(stats.Exact, 0, 1))
	r := rand.New(rand.NewSource(5))
	tb := table.New("t", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TString},
		{Name: "c", Typ: table.TInt64},
		{Name: "x", Typ: table.TFloat64},
	})
	bs := []string{"p", "q", "r"}
	for i := 0; i < 3000; i++ {
		tb.AppendRow(
			table.Int(int64(r.Intn(5))),
			table.Str(bs[r.Intn(3)]),
			table.Int(int64(r.Intn(7))),
			table.Float(float64(r.Intn(50))),
		)
	}
	eng.Catalog().Register(tb)
	return eng, tb
}

// tagRows partitions result rows by grp_tag and returns count sums per tag.
func tagRows(t *testing.T, res *table.Table) map[string]int {
	t.Helper()
	out := map[string]int{}
	tag := res.ColByName(exec.GrpTagCol)
	if tag == nil {
		t.Fatal("result lacks grp_tag")
	}
	for i := 0; i < res.NumRows(); i++ {
		out[tag.Value(i).S]++
	}
	return out
}

func TestRunGroupingSets(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "SELECT a, b, COUNT(*) FROM t GROUP BY GROUPING SETS ((a), (b), (a, b))", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	tags := tagRows(t, res.Table)
	if len(tags) != 3 {
		t.Fatalf("tags = %v", tags)
	}
	if tags["(a)"] != tb.Col(0).DistinctCount() {
		t.Fatalf("(a) rows = %d, want %d", tags["(a)"], tb.Col(0).DistinctCount())
	}
	if tags["(b)"] != tb.Col(1).DistinctCount() {
		t.Fatalf("(b) rows = %d", tags["(b)"])
	}
	// Counts per grouping set must sum to the row count.
	cnt := res.Table.ColByName("cnt")
	sums := map[string]int64{}
	for i := 0; i < res.Table.NumRows(); i++ {
		sums[res.Table.ColByName(exec.GrpTagCol).Value(i).S] += cnt.Value(i).I
	}
	for tag, s := range sums {
		if s != int64(tb.NumRows()) {
			t.Fatalf("tag %s counts sum to %d, want %d", tag, s, tb.NumRows())
		}
	}
	// Absent grouping columns must be NULL.
	aCol, bCol := res.Table.ColByName("a"), res.Table.ColByName("b")
	tagCol := res.Table.ColByName(exec.GrpTagCol)
	for i := 0; i < res.Table.NumRows(); i++ {
		switch tagCol.Value(i).S {
		case "(a)":
			if !bCol.IsNull(i) || aCol.IsNull(i) {
				t.Fatal("(a) rows should have NULL b")
			}
		case "(b)":
			if !aCol.IsNull(i) || bCol.IsNull(i) {
				t.Fatal("(b) rows should have NULL a")
			}
		}
	}
}

func TestRunCubeIncludesGrandTotal(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "SELECT COUNT(*) FROM t GROUP BY CUBE(a, b)", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	tags := tagRows(t, res.Table)
	if len(tags) != 4 { // (a,b), (a), (b), ()
		t.Fatalf("cube tags = %v", tags)
	}
	if tags["()"] != 1 {
		t.Fatalf("grand total rows = %d", tags["()"])
	}
	// The grand-total count equals the table size.
	tagCol := res.Table.ColByName(exec.GrpTagCol)
	for i := 0; i < res.Table.NumRows(); i++ {
		if tagCol.Value(i).S == "()" {
			if got := res.Table.ColByName("cnt").Value(i).I; got != int64(tb.NumRows()) {
				t.Fatalf("grand total = %d, want %d", got, tb.NumRows())
			}
		}
	}
}

func TestRunRollup(t *testing.T) {
	eng, _ := newSQLEngine(t)
	res, err := Run(eng, "SELECT COUNT(*) FROM t GROUP BY ROLLUP(a, b)", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	tags := tagRows(t, res.Table)
	// ROLLUP(a, b) = (a,b), (a), ().
	if len(tags) != 3 || tags["()"] != 1 {
		t.Fatalf("rollup tags = %v", tags)
	}
	if _, has := tags["(b)"]; has {
		t.Fatal("rollup must not include (b)")
	}
}

func TestRunCombi(t *testing.T) {
	eng, _ := newSQLEngine(t)
	res, err := Run(eng, "SELECT COUNT(*) FROM t GROUP BY COMBI(2; a, b, c)", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	tags := tagRows(t, res.Table)
	// All subsets of size 1 and 2 of 3 columns: 3 + 3 = 6.
	if len(tags) != 6 {
		t.Fatalf("combi tags = %v", tags)
	}
}

func TestRunWhere(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "SELECT a, COUNT(*) FROM t WHERE c >= 3 AND b = 'p' GROUP BY a", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference count.
	want := 0
	for i := 0; i < tb.NumRows(); i++ {
		if tb.Col(2).Value(i).I >= 3 && tb.Col(1).Value(i).S == "p" {
			want++
		}
	}
	total := int64(0)
	for i := 0; i < res.Table.NumRows(); i++ {
		total += res.Table.ColByName("cnt").Value(i).I
	}
	if total != int64(want) {
		t.Fatalf("filtered total = %d, want %d", total, want)
	}
	// The ephemeral filtered table must be gone.
	for _, name := range eng.Catalog().TableNames() {
		if strings.HasPrefix(name, "__where") {
			t.Fatalf("leaked temp table %s", name)
		}
	}
}

func TestRunAggregates(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "SELECT b, COUNT(*) AS n, SUM(x) AS total, MIN(c) AS lo, MAX(c) AS hi FROM t GROUP BY b", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	direct := exec.GroupByHash(tb, []int{1}, []exec.Agg{
		{Kind: exec.AggCountStar, Name: "n"},
		{Kind: exec.AggSum, Col: 3, Name: "total"},
		{Kind: exec.AggMin, Col: 2, Name: "lo"},
		{Kind: exec.AggMax, Col: 2, Name: "hi"},
	}, "direct")
	if res.Table.NumRows() != direct.NumRows() {
		t.Fatalf("rows %d vs %d", res.Table.NumRows(), direct.NumRows())
	}
	byB := func(tb *table.Table) map[string][4]table.Value {
		m := map[string][4]table.Value{}
		for i := 0; i < tb.NumRows(); i++ {
			m[tb.ColByName("b").Value(i).S] = [4]table.Value{
				tb.ColByName("n").Value(i), tb.ColByName("total").Value(i),
				tb.ColByName("lo").Value(i), tb.ColByName("hi").Value(i),
			}
		}
		return m
	}
	d, g := byB(direct), byB(res.Table)
	for k, dv := range d {
		gv := g[k]
		for i := range dv {
			if !dv[i].Equal(gv[i]) {
				t.Fatalf("b=%q agg %d: %v vs %v", k, i, gv[i], dv[i])
			}
		}
	}
}

func TestRunGlobalAggregate(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "SELECT COUNT(*) FROM t", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || res.Table.ColByName("cnt").Value(0).I != int64(tb.NumRows()) {
		t.Fatalf("global aggregate wrong: %s", res.Table.FormatRows(-1))
	}
}

func TestRunPlainSelect(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "SELECT * FROM t", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != tb.NumRows() {
		t.Fatal("plain select lost rows")
	}
}

func TestRunStrategiesAgree(t *testing.T) {
	eng, _ := newSQLEngine(t)
	q := "SELECT COUNT(*) FROM t GROUP BY GROUPING SETS ((a), (b), (c), (a, c))"
	collect := func(strat engine.Strategy) map[string]int64 {
		res, err := Run(eng, q, engine.Request{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int64{}
		for i := 0; i < res.Table.NumRows(); i++ {
			key := ""
			for j := 0; j < res.Table.NumCols(); j++ {
				v := res.Table.Col(j).Value(i)
				if res.Table.Col(j).Name() == "cnt" {
					continue
				}
				key += "|" + v.String()
			}
			m[key] += res.Table.ColByName("cnt").Value(i).I
		}
		return m
	}
	naive := collect(engine.StrategyNaive)
	gbmqo := collect(engine.StrategyGBMQO)
	if len(naive) != len(gbmqo) {
		t.Fatalf("row sets differ: %d vs %d", len(naive), len(gbmqo))
	}
	for k, v := range naive {
		if gbmqo[k] != v {
			t.Fatalf("key %q: %d vs %d", k, gbmqo[k], v)
		}
	}
}

func TestRunErrors(t *testing.T) {
	eng, _ := newSQLEngine(t)
	bad := []string{
		"SELECT COUNT(*) FROM missing GROUP BY a",
		"SELECT COUNT(*) FROM t GROUP BY nosuchcol",
		"SELECT SUM(nope) FROM t GROUP BY a",
		"SELECT COUNT(*) FROM t WHERE nope = 1",
		"SELECT COUNT(*) FROM t WHERE b = 3",   // string col vs number
		"SELECT COUNT(*) FROM t WHERE a = 'x'", // int col vs string
		"SELECT COUNT(*) AS n, SUM(x) AS n FROM t GROUP BY a",
	}
	for _, q := range bad {
		if _, err := Run(eng, q, engine.Request{}); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestCaseInsensitiveResolution(t *testing.T) {
	eng, tb := newSQLEngine(t)
	res, err := Run(eng, "select A, count(*) from T group by A", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != tb.Col(0).DistinctCount() {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

// tablesIdentical compares schema and every cell.
func tablesIdentical(t *testing.T, got, want *table.Table) {
	t.Helper()
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < got.NumCols(); c++ {
		if got.Col(c).Name() != want.Col(c).Name() || got.Col(c).Type() != want.Col(c).Type() {
			t.Fatalf("col %d is %s %v, want %s %v", c, got.Col(c).Name(), got.Col(c).Type(), want.Col(c).Name(), want.Col(c).Type())
		}
	}
	for r := 0; r < got.NumRows(); r++ {
		for c := 0; c < got.NumCols(); c++ {
			g, w := got.Col(c).Value(r), want.Col(c).Value(r)
			if g != w {
				t.Fatalf("cell (%d,%d) = %v, want %v", r, c, g, w)
			}
		}
	}
}

func TestDecomposeAssembleMatchesRun(t *testing.T) {
	eng, tb := newSQLEngine(t)
	for _, stmt := range []string{
		"SELECT a, b, COUNT(*), SUM(c) AS sc FROM t GROUP BY GROUPING SETS ((a), (b), (a, b))",
		"SELECT COUNT(*) FROM t GROUP BY CUBE(a, b)",
		"SELECT a, MIN(c) AS mn, MAX(c) AS mx FROM t GROUP BY ROLLUP(a, b)",
		"SELECT a FROM t GROUP BY a",
	} {
		q, err := Parse(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		spec, ok, err := Decompose(eng, q)
		if err != nil || !ok {
			t.Fatalf("%s: decompose ok=%v err=%v", stmt, ok, err)
		}
		if spec.Table != tb.Name() {
			t.Fatalf("%s: table %q", stmt, spec.Table)
		}
		// Compute each grouping set through the engine one at a time, the way
		// the scheduler would, then reassemble.
		results := map[colset.Set]*table.Table{}
		for _, s := range spec.Sets {
			run, err := eng.Run(engine.Request{Table: spec.Table, Sets: []colset.Set{s}, Aggs: spec.Aggs})
			if err != nil {
				t.Fatalf("%s: per-set run: %v", stmt, err)
			}
			results[s] = run.Report.Results[s]
		}
		got, err := Assemble(tb, spec, results)
		if err != nil {
			t.Fatalf("%s: assemble: %v", stmt, err)
		}
		want, err := Run(eng, stmt, engine.Request{})
		if err != nil {
			t.Fatalf("%s: solo run: %v", stmt, err)
		}
		tablesIdentical(t, got, want.Table)
	}
}

func TestDecomposeRejectsUnbatchableShapes(t *testing.T) {
	eng, _ := newSQLEngine(t)
	for _, stmt := range []string{
		"SELECT a, COUNT(*) FROM t WHERE c > 2 GROUP BY a",
		"SELECT COUNT(*) FROM t",
		"SELECT a FROM t",
	} {
		q, err := Parse(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		spec, ok, err := Decompose(eng, q)
		if err != nil || ok || spec != nil {
			t.Fatalf("%s: want ok=false, got spec=%v ok=%v err=%v", stmt, spec, ok, err)
		}
	}
	// Resolution failures are errors, not fallbacks.
	q, err := Parse("SELECT a, COUNT(*) FROM nosuch GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompose(eng, q); err == nil {
		t.Fatal("unknown table must error")
	}
}
