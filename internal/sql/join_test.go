package sql

import (
	"math/rand"
	"testing"

	"gbmqo/internal/engine"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// newJoinEngine registers R(a, b, c) and S(a2, d) with a shared join domain.
func newJoinEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(stats.NewService(stats.Exact, 0, 1))
	r := rand.New(rand.NewSource(17))
	R := table.New("R", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
		{Name: "c", Typ: table.TString},
	})
	cs := []string{"u", "v", "w"}
	for i := 0; i < 2000; i++ {
		R.AppendRow(
			table.Int(int64(r.Intn(30))),
			table.Int(int64(r.Intn(5))),
			table.Str(cs[r.Intn(3)]),
		)
	}
	S := table.New("S", []table.ColumnDef{
		{Name: "a2", Typ: table.TInt64},
		{Name: "d", Typ: table.TInt64},
	})
	for i := 0; i < 200; i++ {
		S.AppendRow(table.Int(int64(r.Intn(40))), table.Int(int64(r.Intn(4))))
	}
	eng.Catalog().Register(R)
	eng.Catalog().Register(S)
	return eng
}

// collectCounts maps "group-key" → summed count over a tagged result.
func collectCounts(t *testing.T, res *table.Table) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	cnt := res.ColByName("cnt")
	if cnt == nil {
		t.Fatal("no cnt column")
	}
	for i := 0; i < res.NumRows(); i++ {
		key := ""
		for j := 0; j < res.NumCols(); j++ {
			if res.Col(j).Name() == "cnt" {
				continue
			}
			key += "|" + res.Col(j).Value(i).String()
			if res.Col(j).IsNull(i) {
				key += "\x00"
			}
		}
		out[key] += cnt.Value(i).I
	}
	return out
}

func TestJoinPushdownMatchesFallback(t *testing.T) {
	eng := newJoinEngine(t)
	// Pushdown-eligible query (grouping cols and COUNT(*) on the left side).
	pushQ := "SELECT b, c, COUNT(*) FROM R JOIN S ON a = a2 GROUP BY GROUPING SETS ((b), (c), (b, c))"
	push, err := Run(eng, pushQ, engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	// Force the fallback by aggregating a right-side column too — SUM(d)
	// disables pushdown; then compare COUNT values via a COUNT-only fallback
	// obtained by grouping on a right-side column trick. Simpler: compute the
	// reference by joining manually through a SUM query that also carries
	// COUNT(*): the fallback path always runs when any non-COUNT aggregate
	// appears.
	fallbackQ := "SELECT b, c, COUNT(*), SUM(d) AS sd FROM R JOIN S ON a = a2 GROUP BY GROUPING SETS ((b), (c), (b, c))"
	fb, err := Run(eng, fallbackQ, engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare count columns on the shared group keys.
	pc := collectCounts(t, push.Table)
	// Fallback result has an extra sd column; rebuild keys without it.
	fc := map[string]int64{}
	for i := 0; i < fb.Table.NumRows(); i++ {
		key := ""
		for j := 0; j < fb.Table.NumCols(); j++ {
			name := fb.Table.Col(j).Name()
			if name == "cnt" || name == "sd" {
				continue
			}
			key += "|" + fb.Table.Col(j).Value(i).String()
			if fb.Table.Col(j).IsNull(i) {
				key += "\x00"
			}
		}
		fc[key] += fb.Table.ColByName("cnt").Value(i).I
	}
	if len(pc) != len(fc) {
		t.Fatalf("group counts differ: pushdown %d, fallback %d", len(pc), len(fc))
	}
	for k, v := range pc {
		if fc[k] != v {
			t.Fatalf("group %q: pushdown %d, fallback %d", k, v, fc[k])
		}
	}
}

func TestJoinCountMatchesManualJoin(t *testing.T) {
	eng := newJoinEngine(t)
	res, err := Run(eng, "SELECT b, COUNT(*) FROM R JOIN S ON a = a2 GROUP BY b", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	// Manual reference: count join pairs per b.
	R, _ := eng.Catalog().Table("R")
	S, _ := eng.Catalog().Table("S")
	sCount := map[int64]int64{}
	for i := 0; i < S.NumRows(); i++ {
		sCount[S.Col(0).Value(i).I]++
	}
	want := map[int64]int64{}
	for i := 0; i < R.NumRows(); i++ {
		want[R.Col(1).Value(i).I] += sCount[R.Col(0).Value(i).I]
	}
	// Drop zero groups (no join partner).
	for k, v := range want {
		if v == 0 {
			delete(want, k)
		}
	}
	got := map[int64]int64{}
	for i := 0; i < res.Table.NumRows(); i++ {
		got[res.Table.ColByName("b").Value(i).I] = res.Table.ColByName("cnt").Value(i).I
	}
	if len(got) != len(want) {
		t.Fatalf("groups %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("b=%d: %d, want %d", k, got[k], v)
		}
	}
}

func TestJoinWithWhereBothSides(t *testing.T) {
	eng := newJoinEngine(t)
	res, err := Run(eng, "SELECT b, COUNT(*) FROM R JOIN S ON a = a2 WHERE c = 'u' AND d >= 2 GROUP BY b", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	R, _ := eng.Catalog().Table("R")
	S, _ := eng.Catalog().Table("S")
	sCount := map[int64]int64{}
	for i := 0; i < S.NumRows(); i++ {
		if S.Col(1).Value(i).I >= 2 {
			sCount[S.Col(0).Value(i).I]++
		}
	}
	want := map[int64]int64{}
	for i := 0; i < R.NumRows(); i++ {
		if R.Col(2).Value(i).S == "u" {
			if n := sCount[R.Col(0).Value(i).I]; n > 0 {
				want[R.Col(1).Value(i).I] += n
			}
		}
	}
	got := map[int64]int64{}
	for i := 0; i < res.Table.NumRows(); i++ {
		got[res.Table.ColByName("b").Value(i).I] = res.Table.ColByName("cnt").Value(i).I
	}
	if len(got) != len(want) {
		t.Fatalf("groups %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("b=%d: %d, want %d", k, got[k], v)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	eng := newJoinEngine(t)
	bad := []string{
		"SELECT COUNT(*) FROM R JOIN missing ON a = a2 GROUP BY b",
		"SELECT COUNT(*) FROM missing JOIN S ON a = a2 GROUP BY b",
		"SELECT COUNT(*) FROM R JOIN S ON nope = a2 GROUP BY b",
		"SELECT COUNT(*) FROM R JOIN S ON a = a2 WHERE zz = 1 GROUP BY b",
	}
	for _, q := range bad {
		if _, err := Run(eng, q, engine.Request{}); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestJoinFallbackGroupsRightColumn(t *testing.T) {
	// Grouping on a right-side column forces the fallback path.
	eng := newJoinEngine(t)
	res, err := Run(eng, "SELECT d, COUNT(*) FROM R JOIN S ON a = a2 GROUP BY d", engine.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("no groups from right-side grouping")
	}
	total := int64(0)
	for i := 0; i < res.Table.NumRows(); i++ {
		total += res.Table.ColByName("cnt").Value(i).I
	}
	// Total must equal the join size.
	R, _ := eng.Catalog().Table("R")
	S, _ := eng.Catalog().Table("S")
	sCount := map[int64]int64{}
	for i := 0; i < S.NumRows(); i++ {
		sCount[S.Col(0).Value(i).I]++
	}
	var joinSize int64
	for i := 0; i < R.NumRows(); i++ {
		joinSize += sCount[R.Col(0).Value(i).I]
	}
	if total != joinSize {
		t.Fatalf("counts sum to %d, join size %d", total, joinSize)
	}
}
