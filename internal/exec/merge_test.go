package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"gbmqo/internal/table"
)

func TestMergeable(t *testing.T) {
	if !Mergeable([]Agg{CountStar(), {Kind: AggSum, Col: 1, Name: "s"},
		{Kind: AggMin, Col: 1, Name: "mn"}, {Kind: AggMax, Col: 1, Name: "mx"},
		{Kind: AggCount, Col: 1, Name: "c"}}) {
		t.Fatal("COUNT/SUM/MIN/MAX should be mergeable")
	}
	if Mergeable([]Agg{CountStar(), {Kind: AggAvg, Col: 1, Name: "a"}}) {
		t.Fatal("AVG is not mergeable")
	}
}

// mergeFixture builds a random base+delta table pair via the real append
// path (shared, extended dictionaries) over mixed column types, with nulls.
func mergeFixture(t *testing.T, rng *rand.Rand, baseRows, deltaRows int) *table.Table {
	t.Helper()
	tb := table.New("m", []table.ColumnDef{
		{Name: "k1", Typ: table.TString},
		{Name: "k2", Typ: table.TInt64},
		{Name: "vi", Typ: table.TInt64},
		{Name: "vf", Typ: table.TFloat64},
		{Name: "vs", Typ: table.TString},
		{Name: "vd", Typ: table.TDate},
	})
	row := func() []table.Value {
		keys := []string{"a", "b", "c", "d", "e"}
		r := []table.Value{
			table.Str(keys[rng.Intn(len(keys))]),
			table.Int(int64(rng.Intn(4))),
			table.Int(int64(rng.Intn(100) - 50)),
			table.Float(float64(rng.Intn(100)) / 4),
			table.Str(keys[rng.Intn(len(keys))] + "x"),
			table.Date(int64(rng.Intn(300))),
		}
		for i := 1; i < len(r); i++ {
			if rng.Intn(8) == 0 {
				r[i] = table.Null(r[i].Typ)
			}
		}
		return r
	}
	for i := 0; i < baseRows; i++ {
		tb.AppendRow(row()...)
	}
	delta := make([][]table.Value, deltaRows)
	for i := range delta {
		delta[i] = row()
	}
	return tb.Append(delta)
}

// TestMergeAppendedGroupsDifferential is the merge kernel's core invariant:
// aggregate the base segment, aggregate the delta segment, merge — the result
// must be byte-identical (values, column layout, row order) to aggregating
// the whole table cold, across every mergeable aggregate and null patterns.
func TestMergeAppendedGroupsDifferential(t *testing.T) {
	aggSets := [][]Agg{
		{CountStar()},
		{CountStar(), {Kind: AggSum, Col: 2, Name: "sum_vi"}},
		{{Kind: AggSum, Col: 3, Name: "sum_vf"}, {Kind: AggCount, Col: 4, Name: "cnt_vs"}},
		{{Kind: AggMin, Col: 2, Name: "min_vi"}, {Kind: AggMax, Col: 2, Name: "max_vi"}},
		{{Kind: AggMin, Col: 4, Name: "min_vs"}, {Kind: AggMax, Col: 4, Name: "max_vs"}},
		{{Kind: AggMin, Col: 5, Name: "min_vd"}, {Kind: AggMax, Col: 5, Name: "max_vd"},
			{Kind: AggSum, Col: 2, Name: "sum_vi"}, CountStar()},
	}
	groupings := [][]int{{0}, {1}, {0, 1}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		full := mergeFixture(t, rng, 40+rng.Intn(80), 1+rng.Intn(40))
		base := prefixView(full, full.DeltaStart())
		delta := full.DeltaView()
		for _, cols := range groupings {
			for _, aggs := range aggSets {
				cold := GroupByHash(full, cols, aggs, "out")
				cached := GroupByHash(base, cols, aggs, "out")
				deltaAgg := GroupByHash(delta, cols, aggs, "out__d")
				merged, err := MergeAppendedGroups(cached, deltaAgg, len(cols), aggs, "out")
				if err != nil {
					t.Fatalf("trial %d cols %v: %v", trial, cols, err)
				}
				assertIdentical(t, merged, cold)
			}
		}
	}
}

// prefixView is the first n rows of t as a dict-sharing table — the
// "pre-append snapshot" a cached entry would have been aggregated from.
func prefixView(t *table.Table, n int) *table.Table {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return t.Gather(t.Name(), idx)
}

// assertIdentical compares cells one by one: values, nulls, schema, and row
// order must all match.
func assertIdentical(t *testing.T, got, want *table.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		if got.Col(c).Name() != want.Col(c).Name() || got.Col(c).Type() != want.Col(c).Type() {
			t.Fatalf("col %d schema %s/%s, want %s/%s", c,
				got.Col(c).Name(), got.Col(c).Type(), want.Col(c).Name(), want.Col(c).Type())
		}
		for r := 0; r < want.NumRows(); r++ {
			gv, wv := got.Col(c).Value(r), want.Col(c).Value(r)
			if gv.Null != wv.Null || (!gv.Null && gv.String() != wv.String()) {
				t.Fatalf("cell (%d,%d) = %v, want %v", r, c, gv, wv)
			}
		}
	}
}

func TestMergeAppendedGroupsDeltaOnlyAndBaseOnlyGroups(t *testing.T) {
	tb := table.New("m", []table.ColumnDef{
		{Name: "k", Typ: table.TString},
		{Name: "v", Typ: table.TInt64},
	})
	tb.AppendRow(table.Str("old"), table.Int(1))
	tb.AppendRow(table.Str("both"), table.Int(2))
	full := tb.Append([][]table.Value{
		{table.Str("both"), table.Int(10)},
		{table.Str("new"), table.Int(20)},
		{table.Str("new2"), table.Int(30)},
	})
	aggs := []Agg{CountStar(), {Kind: AggSum, Col: 1, Name: "s"}}
	cold := GroupByHash(full, []int{0}, aggs, "out")
	cached := GroupByHash(prefixView(full, full.DeltaStart()), []int{0}, aggs, "out")
	deltaAgg := GroupByHash(full.DeltaView(), []int{0}, aggs, "out__d")
	merged, err := MergeAppendedGroups(cached, deltaAgg, 1, aggs, "out")
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, cold)
	// Row order: base-first-appearance groups first, then delta-only groups
	// in delta first-appearance order — exactly cold order.
	names := []string{"old", "both", "new", "new2"}
	for i, want := range names {
		if got := merged.Col(0).Value(i).S; got != want {
			t.Fatalf("row %d group = %q, want %q", i, got, want)
		}
	}
}

// TestMergeAppendedGroupsWideKeys: nine key columns of about 300 values each
// need 81 bits, past one packed uint64, so groups pair by their codes' bytes.
// Half the delta rows repeat a base key, the other half differ from one only
// in the last key column, so a key that dropped any column would merge them.
func TestMergeAppendedGroupsWideKeys(t *testing.T) {
	const nKeys = 9
	defs := make([]table.ColumnDef, nKeys+1)
	for i := range defs {
		defs[i] = table.ColumnDef{Name: fmt.Sprintf("c%d", i), Typ: table.TInt64}
	}
	tb := table.New("w", defs)
	rng := rand.New(rand.NewSource(5))
	var rows [][]table.Value
	for i := 0; i < 600; i++ {
		row := make([]table.Value, nKeys+1)
		for c := range row {
			row[c] = table.Int(int64(rng.Intn(300)))
		}
		rows = append(rows, row)
		tb.AppendRow(row...)
	}
	var delta [][]table.Value
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			delta = append(delta, rows[rng.Intn(len(rows))])
			continue
		}
		row := append([]table.Value(nil), rows[rng.Intn(len(rows))]...)
		row[nKeys-1] = table.Int(int64(300 + rng.Intn(300)))
		delta = append(delta, row)
	}
	full := tb.Append(delta)
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	aggs := []Agg{CountStar(), {Kind: AggSum, Col: nKeys, Name: "s"}, {Kind: AggMax, Col: nKeys, Name: "x"}}
	cold := GroupByHash(full, cols, aggs, "out")
	cached := GroupByHash(prefixView(full, full.DeltaStart()), cols, aggs, "out")
	deltaAgg := GroupByHash(full.DeltaView(), cols, aggs, "out__d")
	merged, err := MergeAppendedGroups(cached, deltaAgg, nKeys, aggs, "out")
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() >= cached.NumRows()+deltaAgg.NumRows() {
		t.Fatalf("no delta group merged into a cached one: %d rows from %d + %d", merged.NumRows(), cached.NumRows(), deltaAgg.NumRows())
	}
	assertIdentical(t, merged, cold)
}

func TestMergeAppendedGroupsShapeErrors(t *testing.T) {
	tb := table.New("m", []table.ColumnDef{
		{Name: "k", Typ: table.TString},
		{Name: "v", Typ: table.TFloat64},
	})
	tb.AppendRow(table.Str("a"), table.Float(1))
	full := tb.Append([][]table.Value{{table.Str("b"), table.Float(2)}})
	aggs := []Agg{CountStar()}
	cached := GroupByHash(prefixView(full, 1), []int{0}, aggs, "out")
	deltaAgg := GroupByHash(full.DeltaView(), []int{0}, aggs, "out__d")
	if _, err := MergeAppendedGroups(cached, deltaAgg, 2, aggs, "out"); err == nil {
		t.Fatal("wrong nKeys accepted")
	}
	if _, err := MergeAppendedGroups(cached, deltaAgg, 1, []Agg{CountStar(), CountStar()}, "out"); err == nil {
		t.Fatal("agg arity mismatch accepted")
	}
	bad := GroupByHash(full.DeltaView(), []int{0}, []Agg{{Kind: AggSum, Col: 1, Name: "cnt"}}, "out__d")
	if _, err := MergeAppendedGroups(cached, bad, 1, aggs, "out"); err == nil {
		t.Fatal("agg output type mismatch accepted")
	}
}

// TestMergeAppendedGroupsSiblingsKeepTheirRows: a merge result shares its
// input's backing, so two merges from one input — a roll thrown away and
// retried — must not write over each other. A chain of merges over
// consecutive row ranges, with two siblings at its end, leaves every table
// identical to a cold aggregation of the rows it covers, the input included.
func TestMergeAppendedGroupsSiblingsKeepTheirRows(t *testing.T) {
	// Every range adds groups (k1 grows with the row) and revisits old ones.
	rng := rand.New(rand.NewSource(11))
	full := table.New("m", []table.ColumnDef{
		{Name: "k1", Typ: table.TInt64}, {Name: "k2", Typ: table.TString},
		{Name: "vi", Typ: table.TInt64}, {Name: "vf", Typ: table.TFloat64},
		{Name: "vs", Typ: table.TString}, {Name: "vd", Typ: table.TDate},
	})
	for r := 0; r < 500; r++ {
		k1 := int64(rng.Intn(20))
		if r%4 == 0 {
			k1 = int64(r)
		}
		vi := table.Int(int64(rng.Intn(100) - 50))
		if k1%3 == 0 && r < 300 {
			vi = table.Null(table.TInt64)
		}
		full.AppendRow(table.Int(k1), table.Str(string(rune('a'+rng.Intn(3)))), vi,
			table.Float(float64(rng.Intn(100))/4), table.Str(fmt.Sprint(rng.Intn(50))), table.Date(int64(rng.Intn(300))))
	}
	aggs := []Agg{CountStar(), {Kind: AggSum, Col: 2, Name: "si"}, {Kind: AggSum, Col: 3, Name: "sf"},
		{Kind: AggMin, Col: 5, Name: "mn"}, {Kind: AggMax, Col: 4, Name: "mx"}}
	keys := []int{0, 1}
	agg := func(ranges ...[2]int) *table.Table {
		var idx []int32
		for _, rg := range ranges {
			for r := rg[0]; r < rg[1]; r++ {
				idx = append(idx, int32(r))
			}
		}
		return GroupByHash(full.Gather("m", idx), keys, aggs, "out")
	}
	merge := func(cached *table.Table, lo, hi int) *table.Table {
		out, err := MergeAppendedGroups(cached, agg([2]int{lo, hi}), len(keys), aggs, "out")
		if err != nil {
			t.Fatal(err)
		}
		out.RowImage()
		return out
	}
	cached := agg([2]int{0, 300})
	cached.RowImage()
	m1 := merge(cached, 300, 400)
	m2 := merge(m1, 400, 450)
	m3 := merge(m2, 450, 470)
	sibling := merge(m2, 470, 500) // m2's second child
	for _, tc := range []struct {
		name string
		got  *table.Table
		want *table.Table
	}{
		{"input", cached, agg([2]int{0, 300})},
		{"first merge", m1, agg([2]int{0, 400})},
		{"second merge", m2, agg([2]int{0, 450})},
		{"first child of the second merge", m3, agg([2]int{0, 470})},
		{"sibling", sibling, agg([2]int{0, 450}, [2]int{470, 500})},
	} {
		assertIdentical(t, tc.got, tc.want)
		got, _ := tc.got.RowImage()
		want, _ := tc.want.RowImage()
		if string(got) != string(want) {
			t.Fatalf("%s: scan image differs from a cold aggregation's", tc.name)
		}
	}
}
