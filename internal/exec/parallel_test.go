package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gbmqo/internal/table"
)

// mkParTable builds a 4-column table for the parallel differential tests:
// two low/medium-NDV key columns (int, string), one high-NDV key column, and
// one float value column. Float values are multiples of 0.25, so SUM/AVG are
// exact in float64 regardless of summation order and parallel results can be
// compared byte-identically to sequential ones. Every column takes NULLs.
func mkParTable(rows, ndvHigh int, seed int64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	t := table.New("p", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TString},
		{Name: "h", Typ: table.TInt64},
		{Name: "x", Typ: table.TFloat64},
	})
	bs := []string{"p", "q", "r", "s", "t", "u"}
	for i := 0; i < rows; i++ {
		var a, b, h, x table.Value
		if r.Intn(11) == 0 {
			a = table.Null(table.TInt64)
		} else {
			a = table.Int(int64(r.Intn(7)))
		}
		if r.Intn(13) == 0 {
			b = table.Null(table.TString)
		} else {
			b = table.Str(bs[r.Intn(len(bs))])
		}
		if r.Intn(17) == 0 {
			h = table.Null(table.TInt64)
		} else {
			h = table.Int(int64(r.Intn(ndvHigh)))
		}
		if r.Intn(9) == 0 {
			x = table.Null(table.TFloat64)
		} else {
			x = table.Float(float64(r.Intn(400)) / 4)
		}
		t.AppendRow(a, b, h, x)
	}
	return t
}

// allAggKinds is one aggregate of every supported kind over the value column
// (ordinal 3) plus COUNT(*) — including the mergeable AVG state.
func allAggKinds() []Agg {
	return []Agg{
		CountStar(),
		{Kind: AggCount, Col: 3, Name: "cx"},
		{Kind: AggSum, Col: 3, Name: "sx"},
		{Kind: AggSum, Col: 2, Name: "sh"},
		{Kind: AggMin, Col: 3, Name: "mn"},
		{Kind: AggMax, Col: 1, Name: "mxb"},
		{Kind: AggAvg, Col: 3, Name: "ax"},
	}
}

// assertTablesIdentical requires got and want to match row-for-row,
// column-for-column (same order, same values — byte-identical output).
func assertTablesIdentical(t *testing.T, got, want *table.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("shape mismatch: got %v, want %v", got, want)
	}
	for j := 0; j < want.NumCols(); j++ {
		if got.Col(j).Name() != want.Col(j).Name() {
			t.Fatalf("column %d named %q, want %q", j, got.Col(j).Name(), want.Col(j).Name())
		}
		for i := 0; i < want.NumRows(); i++ {
			gv, wv := got.Col(j).Value(i), want.Col(j).Value(i)
			if !gv.Equal(wv) {
				t.Fatalf("row %d col %q: got %v, want %v", i, want.Col(j).Name(), gv, wv)
			}
		}
	}
}

// canonicalRows renders a table as sorted "key|...|vals" strings, the
// canonical group ordering used to compare hash and sort operators.
func canonicalRows(tb *table.Table) []string {
	out := make([]string, tb.NumRows())
	for i := 0; i < tb.NumRows(); i++ {
		s := ""
		for j := 0; j < tb.NumCols(); j++ {
			v := tb.Col(j).Value(i)
			s += "|" + v.String()
			if v.Null {
				s += "\x00"
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// TestParallelGroupByDifferential is the randomized differential suite: for
// several seeds, NDV regimes, group-column counts, worker counts and both
// starting key modes, the parallel driver must produce output byte-identical
// to sequential GroupByHash (including group order) and canonically equal to
// GroupBySort, across all aggregate kinds and NULL-heavy data.
func TestParallelGroupByDifferential(t *testing.T) {
	groupings := [][]int{nil, {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}}
	for seed := int64(1); seed <= 4; seed++ {
		for _, ndv := range []int{3, 5000} {
			tb := mkParTable(6000, ndv, seed)
			aggs := allAggKinds()
			for _, cols := range groupings {
				seq := GroupByHash(tb, cols, aggs, "seq")
				var srt *table.Table
				if len(cols) > 0 { // GroupBySort cannot build an empty-key index
					srt = GroupBySort(tb, cols, aggs, "srt")
				}
				for _, w := range []int{2, 3, 7} {
					for _, dense := range []bool{false, true} {
						name := fmt.Sprintf("seed=%d/ndv=%d/cols=%v/w=%d/dense=%v", seed, ndv, cols, w, dense)
						// Drive the driver directly: the public entry points would
						// fall back to sequential below the per-worker row floor.
						outs, st, err := groupBy(nil, tb, []MultiQuery{{GroupCols: cols, Aggs: aggs, OutName: "par", dense: dense}}, w)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if st[0].Workers != w {
							t.Fatalf("%s: ran with %d workers", name, st[0].Workers)
						}
						par := outs[0]
						assertTablesIdentical(t, par, seq)
						if srt != nil {
							g, s := canonicalRows(par), canonicalRows(srt)
							for i := range s {
								if g[i] != s[i] {
									t.Fatalf("%s: canonical row %d: parallel %q, sort %q", name, i, g[i], s[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelMultiQueryDifferential checks the shared-scan variant: every
// query of a multi-query parallel scan must match the sequential shared scan
// byte-for-byte.
func TestParallelMultiQueryDifferential(t *testing.T) {
	for seed := int64(5); seed <= 7; seed++ {
		tb := mkParTable(5000, 900, seed)
		queries := []MultiQuery{
			{GroupCols: []int{0}, Aggs: []Agg{CountStar(), {Kind: AggAvg, Col: 3, Name: "ax"}}, OutName: "q0"},
			{GroupCols: []int{1, 2}, Aggs: allAggKinds(), OutName: "q1"},
			{GroupCols: nil, Aggs: []Agg{{Kind: AggSum, Col: 3, Name: "sx"}}, OutName: "q2"},
			{GroupCols: []int{2}, Aggs: []Agg{{Kind: AggMin, Col: 1, Name: "mnb"}, {Kind: AggMax, Col: 3, Name: "mx"}}, OutName: "q3"},
		}
		seq, err := GroupByHashMulti(tb, queries)
		if err != nil {
			t.Fatal(err)
		}
		outs, _, err := groupBy(nil, tb, queries, 4)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			assertTablesIdentical(t, outs[qi], seq[qi])
		}
	}
}

// TestParallelEntryPointsCutoff verifies the public entry points: small
// inputs take the sequential path (Workers == 1), and the results still
// match; a large-enough input actually goes parallel, one worker per
// shareMinRows rows at most.
func TestParallelEntryPointsCutoff(t *testing.T) {
	small := mkParTable(2000, 50, 11)
	out, ks, err := GroupByAdaptiveGov(nil, small, []int{0, 1}, []Agg{CountStar()}, "g", AdaptiveHints{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ks.Workers != 1 {
		t.Fatalf("small input used %d workers", ks.Workers)
	}
	assertTablesIdentical(t, out, GroupByHash(small, []int{0, 1}, []Agg{CountStar()}, "g"))

	big := mkParTable(3*shareMinRows, 40, 12)
	aggs := []Agg{CountStar(), {Kind: AggAvg, Col: 3, Name: "ax"}}
	outs, stats, err := sharedScan(nil, big, []MultiQuery{{GroupCols: []int{0}, Aggs: aggs, OutName: "g"}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Workers != 3 {
		t.Fatalf("workers = %d, want 3 (one per %d rows)", stats[0].Workers, shareMinRows)
	}
	assertTablesIdentical(t, outs[0], GroupByHash(big, []int{0}, aggs, "g"))

	outs, stats, err = sharedScan(nil, big, []MultiQuery{{GroupCols: []int{1}, Aggs: []Agg{CountStar()}, OutName: "q"}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Workers < 2 {
		t.Fatalf("multi large input stayed sequential")
	}
	assertTablesIdentical(t, outs[0], GroupByHash(big, []int{1}, []Agg{CountStar()}, "q"))
}

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct{ rows, req, want int }{
		{100, 8, 1},                  // tiny: sequential
		{shareMinRows - 1, 4, 1},     // below one share
		{2 * shareMinRows, 8, 2},     // two shares cap two workers
		{10 * shareMinRows, 4, 4},    // request below cap
		{10 * shareMinRows, 0, 1},    // knob off
		{10 * shareMinRows, -5, 1},   // negative resolved by caller, not here
		{100 * shareMinRows, 16, 16}, // plenty of rows
	}
	for _, c := range cases {
		if got := effectiveWorkers(c.rows, c.req); got != c.want {
			t.Fatalf("effectiveWorkers(%d, %d) = %d, want %d", c.rows, c.req, got, c.want)
		}
	}
}

// TestGroupHashGrowth pushes a single hash table far past its initial
// capacity: every key distinct, so the table must rehash several times and
// still produce one group per row.
func TestGroupHashGrowth(t *testing.T) {
	tb := table.New("g", []table.ColumnDef{{Name: "k", Typ: table.TInt64}})
	const n = 50_000
	for i := 0; i < n; i++ {
		tb.AppendRow(table.Int(int64(i)))
	}
	out := GroupByHash(tb, []int{0}, []Agg{CountStar()}, "o")
	if out.NumRows() != n {
		t.Fatalf("got %d groups, want %d", out.NumRows(), n)
	}
	for i := 0; i < n; i++ {
		if out.ColByName("cnt").Value(i).I != 1 {
			t.Fatalf("group %d count %v", i, out.ColByName("cnt").Value(i))
		}
	}
}

func TestAvgAggregate(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{
		{Name: "g", Typ: table.TInt64},
		{Name: "v", Typ: table.TInt64},
	})
	tb.AppendRow(table.Int(1), table.Int(10))
	tb.AppendRow(table.Int(1), table.Int(20))
	tb.AppendRow(table.Int(1), table.Null(table.TInt64))
	tb.AppendRow(table.Int(2), table.Null(table.TInt64))
	out := GroupByHash(tb, []int{0}, []Agg{{Kind: AggAvg, Col: 1, Name: "av"}}, "o")
	for i := 0; i < out.NumRows(); i++ {
		switch out.Col(0).Value(i).I {
		case 1:
			if v := out.ColByName("av").Value(i); v.Null || v.F != 15 {
				t.Fatalf("avg = %v, want 15", v)
			}
		case 2:
			if !out.ColByName("av").Value(i).Null {
				t.Fatal("all-NULL group must average to NULL")
			}
		}
	}
}

func TestAvgRollupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on AVG rollup")
		}
	}()
	(Agg{Kind: AggAvg, Col: 1, Name: "av"}).Rollup(0)
}
