package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gbmqo/internal/index"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// mkTable builds a 3-column test table with controlled duplication and NULLs.
func mkTable(rows int, seed int64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	t := table.New("t", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TString},
		{Name: "x", Typ: table.TFloat64},
	})
	bs := []string{"p", "q", "r", "s"}
	for i := 0; i < rows; i++ {
		var a, b, x table.Value
		if r.Intn(10) == 0 {
			a = table.Null(table.TInt64)
		} else {
			a = table.Int(int64(r.Intn(5)))
		}
		if r.Intn(12) == 0 {
			b = table.Null(table.TString)
		} else {
			b = table.Str(bs[r.Intn(len(bs))])
		}
		if r.Intn(15) == 0 {
			x = table.Null(table.TFloat64)
		} else {
			x = table.Float(float64(r.Intn(100)) / 4)
		}
		t.AppendRow(a, b, x)
	}
	return t
}

// refGroupBy is a map-based reference implementation for cross-checking.
type refRow struct {
	key  []table.Value
	cnt  int64
	sum  float64
	seen bool
}

func refGroupBy(t *table.Table, groupCols []int, sumCol int) map[string]*refRow {
	out := map[string]*refRow{}
	for i := 0; i < t.NumRows(); i++ {
		k := ""
		var key []table.Value
		for _, c := range groupCols {
			v := t.Col(c).Value(i)
			k += "|" + v.String()
			if v.Null {
				k += "\x00NULL"
			}
			key = append(key, v)
		}
		row, ok := out[k]
		if !ok {
			row = &refRow{key: key}
			out[k] = row
		}
		row.cnt++
		if sumCol >= 0 {
			if v := t.Col(sumCol).Value(i); !v.Null {
				row.sum += v.F
				row.seen = true
			}
		}
	}
	return out
}

// resultKey renders a result row's group key the same way refGroupBy does.
func resultKey(t *table.Table, row, nGroupCols int) string {
	k := ""
	for c := 0; c < nGroupCols; c++ {
		v := t.Col(c).Value(row)
		k += "|" + v.String()
		if v.Null {
			k += "\x00NULL"
		}
	}
	return k
}

func checkAgainstRef(t *testing.T, got *table.Table, ref map[string]*refRow, nGroupCols int, cntOrd, sumOrd int) {
	t.Helper()
	if got.NumRows() != len(ref) {
		t.Fatalf("result has %d groups, want %d", got.NumRows(), len(ref))
	}
	for i := 0; i < got.NumRows(); i++ {
		k := resultKey(got, i, nGroupCols)
		want, ok := ref[k]
		if !ok {
			t.Fatalf("unexpected group %q", k)
		}
		if cntOrd >= 0 {
			if c := got.Col(cntOrd).Value(i); c.I != want.cnt {
				t.Fatalf("group %q cnt = %d, want %d", k, c.I, want.cnt)
			}
		}
		if sumOrd >= 0 {
			v := got.Col(sumOrd).Value(i)
			if want.seen {
				if v.Null || v.F != want.sum {
					t.Fatalf("group %q sum = %v, want %v", k, v, want.sum)
				}
			} else if !v.Null {
				t.Fatalf("group %q sum should be NULL", k)
			}
		}
	}
}

func TestGroupByHashMatchesReference(t *testing.T) {
	tb := mkTable(3000, 1)
	got := GroupByHash(tb, []int{0, 1}, []Agg{CountStar(), {Kind: AggSum, Col: 2, Name: "sx"}}, "g")
	ref := refGroupBy(tb, []int{0, 1}, 2)
	checkAgainstRef(t, got, ref, 2, 2, 3)
}

func TestGroupBySortMatchesHash(t *testing.T) {
	tb := mkTable(2000, 2)
	aggs := []Agg{CountStar()}
	h := GroupByHash(tb, []int{1}, aggs, "h")
	s := GroupBySort(tb, []int{1}, aggs, "s")
	if h.NumRows() != s.NumRows() {
		t.Fatalf("hash %d groups, sort %d groups", h.NumRows(), s.NumRows())
	}
	ref := refGroupBy(tb, []int{1}, -1)
	checkAgainstRef(t, s, ref, 1, 1, -1)
}

func TestGroupByIndexStream(t *testing.T) {
	tb := mkTable(2500, 3)
	ix := index.Build(tb, "ix", []int{0, 1}, false)
	// Full key.
	full := GroupByIndexStream(tb, ix, []int{0, 1}, []Agg{CountStar()}, "f")
	checkAgainstRef(t, full, refGroupBy(tb, []int{0, 1}, -1), 2, 2, -1)
	// Prefix.
	pre := GroupByIndexStream(tb, ix, []int{0}, []Agg{CountStar()}, "p")
	checkAgainstRef(t, pre, refGroupBy(tb, []int{0}, -1), 1, 1, -1)
}

func TestGroupByIndexStreamRejectsNonPrefix(t *testing.T) {
	tb := mkTable(100, 4)
	ix := index.Build(tb, "ix", []int{0, 1}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-prefix stream")
		}
	}()
	GroupByIndexStream(tb, ix, []int{1}, []Agg{CountStar()}, "bad")
}

func TestGroupByIndexCounts(t *testing.T) {
	tb := mkTable(2500, 5)
	ix := index.Build(tb, "ix", []int{1}, false)
	got := GroupByIndexCounts(tb, ix, "g")
	checkAgainstRef(t, got, refGroupBy(tb, []int{1}, -1), 1, 1, -1)
}

func TestGroupByIndexPrefixCounts(t *testing.T) {
	tb := mkTable(2500, 12)
	ix := index.Build(tb, "ix", []int{0, 1}, false)
	// Prefix {0} of the (0, 1) index.
	got := GroupByIndexPrefixCounts(tb, ix, []int{0}, "g")
	checkAgainstRef(t, got, refGroupBy(tb, []int{0}, -1), 1, 1, -1)
	// Full key works too (degenerates to per-group runs of length one).
	full := GroupByIndexPrefixCounts(tb, ix, []int{0, 1}, "f")
	checkAgainstRef(t, full, refGroupBy(tb, []int{0, 1}, -1), 2, 2, -1)
}

func TestGroupByIndexPrefixCountsRejectsNonPrefix(t *testing.T) {
	tb := mkTable(100, 13)
	ix := index.Build(tb, "ix", []int{0, 1}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-prefix")
		}
	}()
	GroupByIndexPrefixCounts(tb, ix, []int{1}, "bad")
}

func TestGroupByIndexPrefixCountsEmptyTable(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
	})
	ix := index.Build(tb, "ix", []int{0, 1}, false)
	got := GroupByIndexPrefixCounts(tb, ix, []int{0}, "g")
	if got.NumRows() != 0 {
		t.Fatalf("empty table produced %d groups", got.NumRows())
	}
}

func TestRollupEquivalence(t *testing.T) {
	// COUNT(*) Group By (a) computed via intermediate (a, b) with SUM(cnt)
	// must equal direct computation — the §5.2 rollup rule every plan in the
	// paper depends on.
	tb := mkTable(4000, 6)
	direct := GroupByHash(tb, []int{0}, []Agg{CountStar()}, "direct")
	inter := GroupByHash(tb, []int{0, 1}, []Agg{CountStar()}, "inter")
	cntOrd := inter.ColIndex("cnt")
	viaInter := GroupByHash(inter, []int{0}, []Agg{CountStar().Rollup(cntOrd)}, "via")
	if direct.NumRows() != viaInter.NumRows() {
		t.Fatalf("group counts differ: %d vs %d", direct.NumRows(), viaInter.NumRows())
	}
	ref := refGroupBy(tb, []int{0}, -1)
	checkAgainstRef(t, viaInter, ref, 1, 1, -1)
}

func TestRollupSumMinMax(t *testing.T) {
	tb := mkTable(3000, 7)
	aggs := []Agg{
		CountStar(),
		{Kind: AggSum, Col: 2, Name: "sx"},
		{Kind: AggMin, Col: 2, Name: "mn"},
		{Kind: AggMax, Col: 2, Name: "mx"},
	}
	direct := GroupByHash(tb, []int{1}, aggs, "direct")
	inter := GroupByHash(tb, []int{0, 1}, aggs, "inter")
	// Re-aggregate from the intermediate: group col b is ordinal 1 there.
	rolled := []Agg{
		aggs[0].Rollup(inter.ColIndex("cnt")),
		aggs[1].Rollup(inter.ColIndex("sx")),
		aggs[2].Rollup(inter.ColIndex("mn")),
		aggs[3].Rollup(inter.ColIndex("mx")),
	}
	via := GroupByHash(inter, []int{1}, rolled, "via")
	if direct.NumRows() != via.NumRows() {
		t.Fatalf("group counts differ")
	}
	// Compare group-keyed maps.
	type row struct{ cnt, sx, mn, mx table.Value }
	collect := func(tb *table.Table) map[string]row {
		m := map[string]row{}
		for i := 0; i < tb.NumRows(); i++ {
			m[resultKey(tb, i, 1)] = row{
				cnt: tb.ColByName("cnt").Value(i),
				sx:  tb.ColByName("sx").Value(i),
				mn:  tb.ColByName("mn").Value(i),
				mx:  tb.ColByName("mx").Value(i),
			}
		}
		return m
	}
	d, v := collect(direct), collect(via)
	for k, dr := range d {
		vr, ok := v[k]
		if !ok {
			t.Fatalf("group %q missing from rollup", k)
		}
		if !dr.cnt.Equal(vr.cnt) || !dr.sx.Equal(vr.sx) || !dr.mn.Equal(vr.mn) || !dr.mx.Equal(vr.mx) {
			t.Fatalf("group %q: direct %+v, rollup %+v", k, dr, vr)
		}
	}
}

func TestAggRollupKinds(t *testing.T) {
	if got := (Agg{Kind: AggCountStar}).Rollup(3); got.Kind != AggSum || got.Col != 3 {
		t.Fatalf("COUNT(*) rollup = %+v", got)
	}
	if got := (Agg{Kind: AggCount, Col: 1}).Rollup(2); got.Kind != AggSum {
		t.Fatalf("COUNT(col) rollup = %+v", got)
	}
	for _, k := range []AggKind{AggSum, AggMin, AggMax} {
		if got := (Agg{Kind: k}).Rollup(1); got.Kind != k {
			t.Fatalf("%v rollup changed kind to %v", k, got.Kind)
		}
	}
}

func TestCountColSkipsNulls(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{
		{Name: "g", Typ: table.TInt64},
		{Name: "v", Typ: table.TInt64},
	})
	tb.AppendRow(table.Int(1), table.Int(10))
	tb.AppendRow(table.Int(1), table.Null(table.TInt64))
	tb.AppendRow(table.Int(1), table.Int(20))
	got := GroupByHash(tb, []int{0}, []Agg{{Kind: AggCount, Col: 1, Name: "c"}}, "g")
	if got.NumRows() != 1 || got.ColByName("c").Value(0).I != 2 {
		t.Fatalf("COUNT(col) = %v", got.ColByName("c").Value(0))
	}
}

func TestMinMaxIgnoreNullsAndAllNullGroup(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{
		{Name: "g", Typ: table.TInt64},
		{Name: "v", Typ: table.TString},
	})
	tb.AppendRow(table.Int(1), table.Str("m"))
	tb.AppendRow(table.Int(1), table.Null(table.TString))
	tb.AppendRow(table.Int(1), table.Str("a"))
	tb.AppendRow(table.Int(2), table.Null(table.TString))
	got := GroupByHash(tb, []int{0}, []Agg{
		{Kind: AggMin, Col: 1, Name: "mn"},
		{Kind: AggMax, Col: 1, Name: "mx"},
	}, "g")
	for i := 0; i < got.NumRows(); i++ {
		switch got.Col(0).Value(i).I {
		case 1:
			if got.ColByName("mn").Value(i).S != "a" || got.ColByName("mx").Value(i).S != "m" {
				t.Fatalf("min/max wrong: %v/%v", got.ColByName("mn").Value(i), got.ColByName("mx").Value(i))
			}
		case 2:
			if !got.ColByName("mn").Value(i).Null || !got.ColByName("mx").Value(i).Null {
				t.Fatal("all-NULL group should produce NULL min/max")
			}
		}
	}
}

func TestSumIntAndDate(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{
		{Name: "g", Typ: table.TInt64},
		{Name: "v", Typ: table.TInt64},
	})
	tb.AppendRow(table.Int(1), table.Int(5))
	tb.AppendRow(table.Int(1), table.Int(7))
	got := GroupByHash(tb, []int{0}, []Agg{{Kind: AggSum, Col: 1, Name: "s"}}, "g")
	if got.ColByName("s").Value(0).I != 12 {
		t.Fatalf("int sum = %v", got.ColByName("s").Value(0))
	}
}

func TestSumOverStringPanics(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{{Name: "s", Typ: table.TString}})
	tb.AppendRow(table.Str("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on SUM(string)")
		}
	}()
	GroupByHash(tb, nil, []Agg{{Kind: AggSum, Col: 0, Name: "s"}}, "g")
}

func TestGroupByEmptyGroupColsGlobalAggregate(t *testing.T) {
	tb := mkTable(100, 8)
	got := GroupByHash(tb, nil, []Agg{CountStar()}, "g")
	if got.NumRows() != 1 || got.ColByName("cnt").Value(0).I != 100 {
		t.Fatalf("global aggregate = %v rows", got.NumRows())
	}
}

func TestGroupByEmptyTable(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	got := GroupByHash(tb, []int{0}, []Agg{CountStar()}, "g")
	if got.NumRows() != 0 {
		t.Fatalf("empty input produced %d groups", got.NumRows())
	}
}

func TestFilterAndCmpPredicate(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	for _, v := range []int64{1, 5, 3, 9} {
		tb.AppendRow(table.Int(v))
	}
	tb.AppendRow(table.Null(table.TInt64))
	got := Filter(tb, "f", CmpPredicate(tb, 0, stats.CmpGt, table.Int(2)))
	if got.NumRows() != 3 {
		t.Fatalf("filter rows = %d, want 3 (NULL excluded)", got.NumRows())
	}
}

func TestUnionAllTagged(t *testing.T) {
	a := table.New("a", []table.ColumnDef{{Name: "x", Typ: table.TInt64}, {Name: "cnt", Typ: table.TInt64}})
	a.AppendRow(table.Int(1), table.Int(10))
	b := table.New("b", []table.ColumnDef{{Name: "y", Typ: table.TString}, {Name: "cnt", Typ: table.TInt64}})
	b.AppendRow(table.Str("k"), table.Int(20))
	out, err := UnionAllTagged("u", []table.ColumnDef{
		{Name: "x", Typ: table.TInt64},
		{Name: "y", Typ: table.TString},
		{Name: "cnt", Typ: table.TInt64},
	}, []*table.Table{a, b}, []string{"(x)", "(y)"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("union rows = %d", out.NumRows())
	}
	if out.ColIndex(GrpTagCol) < 0 {
		t.Fatal("missing grp_tag")
	}
	// Part a: y must be NULL; part b: x must be NULL.
	if !out.ColByName("y").IsNull(0) || !out.ColByName("x").IsNull(1) {
		t.Fatal("absent grouping columns must be NULL")
	}
	if out.ColByName(GrpTagCol).Value(0).S != "(x)" || out.ColByName(GrpTagCol).Value(1).S != "(y)" {
		t.Fatal("tags wrong")
	}
}

func TestSplitTaggedRoundTrip(t *testing.T) {
	a := table.New("a", []table.ColumnDef{{Name: "x", Typ: table.TInt64}, {Name: "cnt", Typ: table.TInt64}})
	a.AppendRow(table.Int(1), table.Int(10))
	a.AppendRow(table.Int(2), table.Int(11))
	b := table.New("b", []table.ColumnDef{{Name: "y", Typ: table.TString}, {Name: "cnt", Typ: table.TInt64}})
	b.AppendRow(table.Str("k"), table.Int(20))
	union, err := UnionAllTagged("u", []table.ColumnDef{
		{Name: "x", Typ: table.TInt64},
		{Name: "y", Typ: table.TString},
		{Name: "cnt", Typ: table.TInt64},
	}, []*table.Table{a, b}, []string{"(x)", "(y)"})
	if err != nil {
		t.Fatal(err)
	}
	parts, tags, err := SplitTagged(union)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || len(tags) != 2 {
		t.Fatalf("split into %d parts / %d tags, want 2/2", len(parts), len(tags))
	}
	if tags[0] != "(x)" || tags[1] != "(y)" {
		t.Fatalf("tags = %v, want first-appearance order [(x) (y)]", tags)
	}
	// Parts carry the full union schema minus grp_tag, rows in order.
	for i, p := range parts {
		if p.ColIndex(GrpTagCol) >= 0 {
			t.Fatalf("part %d still has %s", i, GrpTagCol)
		}
		if p.NumCols() != 3 {
			t.Fatalf("part %d has %d cols, want 3", i, p.NumCols())
		}
	}
	px, py := parts[0], parts[1]
	if px.NumRows() != 2 || py.NumRows() != 1 {
		t.Fatalf("part rows = %d/%d, want 2/1", px.NumRows(), py.NumRows())
	}
	if px.ColByName("x").Value(0).I != 1 || px.ColByName("x").Value(1).I != 2 {
		t.Fatal("part (x) row order not preserved")
	}
	if !px.ColByName("y").IsNull(0) || !py.ColByName("x").IsNull(0) {
		t.Fatal("absent grouping columns must stay NULL after split")
	}
	if py.ColByName("cnt").Value(0).I != 20 {
		t.Fatal("part (y) aggregate wrong")
	}
}

// TestUnionAllTaggedColumnWise unions two kernel results over one table:
// key columns keep their source dictionary (codes copied, absent = NULL),
// aggregate columns concatenate into one measure column, MIN codes stay
// under the source dictionary, and the values read back as the parts held
// them.
func TestUnionAllTaggedColumnWise(t *testing.T) {
	src := table.New("s", []table.ColumnDef{{Name: "x", Typ: table.TInt64}, {Name: "y", Typ: table.TString}})
	for i := 0; i < 12; i++ {
		src.AppendRow(table.Int(int64(i%3)), table.Str([]string{"p", "q"}[i%2]))
	}
	aggs := []Agg{CountStar(), {Kind: AggMin, Col: 0, Name: "mn"}}
	px := GroupByHash(src, []int{0}, aggs, "px")
	py := GroupByHash(src, []int{1}, aggs, "py")
	out, err := UnionAllTagged("u", []table.ColumnDef{
		{Name: "x", Typ: table.TInt64},
		{Name: "y", Typ: table.TString},
		{Name: "cnt", Typ: table.TInt64},
		{Name: "mn", Typ: table.TInt64},
	}, []*table.Table{px, py}, []string{"(x)", "(y)"})
	if err != nil {
		t.Fatal(err)
	}
	x, y, cnt, mn := out.ColByName("x"), out.ColByName("y"), out.ColByName("cnt"), out.ColByName("mn")
	if !x.SharesDict(src.Col(0)) || !y.SharesDict(src.Col(1)) || !mn.SharesDict(src.Col(0)) || !cnt.Measure() {
		t.Fatal("union re-encoded a column: keys and MIN must keep the source dictionary, COUNT stay a measure")
	}
	want := []string{"0||4|0", "1||4|1", "2||4|2", "|p|6|0", "|q|6|0"} // NULL prints empty
	for r, w := range want {
		if got := fmt.Sprintf("%v|%v|%v|%v", x.Value(r), y.Value(r), cnt.Value(r), mn.Value(r)); got != w {
			t.Errorf("row %d = %q, want %q", r, got, w)
		}
	}
}

func TestSplitTaggedMissingColumn(t *testing.T) {
	plain := table.New("p", []table.ColumnDef{{Name: "x", Typ: table.TInt64}})
	if _, _, err := SplitTagged(plain); err == nil {
		t.Fatal("no error splitting a table without grp_tag")
	}
}

func TestUnionAllTaggedArityError(t *testing.T) {
	_, err := UnionAllTagged("u", nil, []*table.Table{table.New("a", nil)}, nil)
	if err == nil {
		t.Fatal("no error on tag arity mismatch")
	}
}

func TestHashJoin(t *testing.T) {
	l := table.New("l", []table.ColumnDef{{Name: "k", Typ: table.TInt64}, {Name: "lv", Typ: table.TString}})
	l.AppendRow(table.Int(1), table.Str("a"))
	l.AppendRow(table.Int(2), table.Str("b"))
	l.AppendRow(table.Int(2), table.Str("c"))
	l.AppendRow(table.Null(table.TInt64), table.Str("n"))
	r := table.New("r", []table.ColumnDef{{Name: "k", Typ: table.TInt64}, {Name: "rv", Typ: table.TString}})
	r.AppendRow(table.Int(2), table.Str("X"))
	r.AppendRow(table.Int(2), table.Str("Y"))
	r.AppendRow(table.Int(3), table.Str("Z"))
	r.AppendRow(table.Null(table.TInt64), table.Str("N"))
	out := HashJoin(l, r, 0, 0, "j")
	if out.NumRows() != 4 { // rows with k=2: 2 left × 2 right
		t.Fatalf("join rows = %d, want 4", out.NumRows())
	}
	// Clashing right key column renamed.
	if out.ColIndex("r_k") < 0 {
		t.Fatalf("expected renamed right key, cols = %v", out.ColNames())
	}
	// All joined keys equal 2.
	for i := 0; i < out.NumRows(); i++ {
		if out.ColByName("k").Value(i).I != 2 {
			t.Fatalf("row %d joined key %v", i, out.ColByName("k").Value(i))
		}
	}
}

func TestHashJoinGroupByPushdownEquivalence(t *testing.T) {
	// Group By over Join(R, S) must equal Group By over pre-aggregated R
	// joined with S and re-aggregated with SUM(cnt) — the §5.1.1
	// transformation.
	rnd := rand.New(rand.NewSource(9))
	R := table.New("R", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
	})
	for i := 0; i < 800; i++ {
		R.AppendRow(table.Int(int64(rnd.Intn(20))), table.Int(int64(rnd.Intn(6))))
	}
	S := table.New("S", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "c", Typ: table.TInt64},
	})
	for i := 0; i < 60; i++ {
		S.AppendRow(table.Int(int64(rnd.Intn(20))), table.Int(int64(rnd.Intn(3))))
	}
	// Direct: join then group by b.
	j := HashJoin(R, S, 0, 0, "j")
	direct := GroupByHash(j, []int{j.ColIndex("b")}, []Agg{CountStar()}, "direct")

	// Pushdown: group R by (a, b) first, join, then re-aggregate.
	pre := GroupByHash(R, []int{0, 1}, []Agg{CountStar()}, "pre")
	j2 := HashJoin(pre, S, 0, 0, "j2")
	push := GroupByHash(j2, []int{j2.ColIndex("b")}, []Agg{CountStar().Rollup(j2.ColIndex("cnt"))}, "push")

	if direct.NumRows() != push.NumRows() {
		t.Fatalf("pushdown group count %d != direct %d", push.NumRows(), direct.NumRows())
	}
	collect := func(tb *table.Table) map[int64]int64 {
		m := map[int64]int64{}
		for i := 0; i < tb.NumRows(); i++ {
			m[tb.Col(0).Value(i).I] = tb.ColByName("cnt").Value(i).I
		}
		return m
	}
	d, p := collect(direct), collect(push)
	for k, v := range d {
		if p[k] != v {
			t.Fatalf("group %d: direct %d, pushdown %d", k, v, p[k])
		}
	}
}

func TestHashRowSpreads(t *testing.T) {
	// Sanity: hashes of distinct single-code rows should mostly differ.
	tb := table.New("h", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	for i := 0; i < 1000; i++ {
		tb.AppendRow(table.Int(int64(i)))
	}
	image, stride := tb.RowImage()
	rd := rowReader{image: image, stride: stride, offs: []int{0}}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[hashRow(rd, i)] = true
	}
	if len(seen) < 990 {
		t.Fatalf("hash collisions too frequent: %d distinct of 1000", len(seen))
	}
}

func TestRowImageMatchesColumns(t *testing.T) {
	tb := mkTable(500, 21)
	image, stride := tb.RowImage()
	if stride != 4*tb.NumCols() || len(image) != stride*tb.NumRows() {
		t.Fatalf("image shape = %d bytes, stride %d", len(image), stride)
	}
	rd := rowReader{image: image, stride: stride, offs: []int{0, 4, 8}}
	for r := 0; r < tb.NumRows(); r += 37 {
		for c := 0; c < 3; c++ {
			if got, want := rd.code(r, c), tb.Col(c).Code(r); got != want {
				t.Fatalf("row %d col %d: image code %d, column code %d", r, c, got, want)
			}
		}
	}
}

func TestGroupOrderingDeterminism(t *testing.T) {
	// Hash group-by emits groups in first-appearance order; two runs over the
	// same data must agree exactly (experiments depend on determinism).
	tb := mkTable(1000, 10)
	a := GroupByHash(tb, []int{0, 1}, []Agg{CountStar()}, "a")
	b := GroupByHash(tb, []int{0, 1}, []Agg{CountStar()}, "b")
	if a.NumRows() != b.NumRows() {
		t.Fatal("nondeterministic group count")
	}
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < a.NumCols(); j++ {
			if !a.Col(j).Value(i).Equal(b.Col(j).Value(i)) {
				t.Fatalf("row %d differs between runs", i)
			}
		}
	}
}

func TestSortedStreamOutputIsSorted(t *testing.T) {
	tb := mkTable(500, 11)
	out := GroupBySort(tb, []int{0}, []Agg{CountStar()}, "s")
	vals := make([]table.Value, out.NumRows())
	for i := range vals {
		vals[i] = out.Col(0).Value(i)
	}
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 }) {
		t.Fatal("sort-based group-by output not in key order")
	}
}
