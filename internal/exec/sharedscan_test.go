package exec

import (
	"testing"

	"gbmqo/internal/table"
)

// sharedScan runs queries in one governed scan of src through the adaptive
// batch entry at a worker budget of w, each query's SizeHint as its NDV
// estimate.
func sharedScan(gov *Gov, src *table.Table, queries []MultiQuery, w int) ([]*table.Table, []KernelStats, error) {
	hints := make([]AdaptiveHints, len(queries))
	for i, q := range queries {
		hints[i] = AdaptiveHints{NDV: float64(q.SizeHint), Workers: w}
	}
	return GroupByAdaptiveMultiGov(gov, src, queries, hints)
}

func TestGroupByHashMultiMatchesIndividual(t *testing.T) {
	tb := mkTable(3000, 31)
	queries := []MultiQuery{
		{GroupCols: []int{0}, Aggs: []Agg{CountStar()}, OutName: "q0"},
		{GroupCols: []int{1}, Aggs: []Agg{CountStar(), {Kind: AggSum, Col: 2, Name: "sx"}}, OutName: "q1"},
		{GroupCols: []int{0, 1}, Aggs: []Agg{CountStar()}, OutName: "q2"},
	}
	outs, err := GroupByHashMulti(tb, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs = %d", len(outs))
	}
	for i, q := range queries {
		single := GroupByHash(tb, q.GroupCols, q.Aggs, "single")
		if outs[i].NumRows() != single.NumRows() {
			t.Fatalf("query %d: %d groups, want %d", i, outs[i].NumRows(), single.NumRows())
		}
		// Shared scan preserves the first-appearance group order, so rows
		// must match positionally.
		for r := 0; r < single.NumRows(); r++ {
			for c := 0; c < single.NumCols(); c++ {
				if !outs[i].Col(c).Value(r).Equal(single.Col(c).Value(r)) {
					t.Fatalf("query %d row %d col %d: %v vs %v",
						i, r, c, outs[i].Col(c).Value(r), single.Col(c).Value(r))
				}
			}
		}
		if outs[i].Name() != q.OutName {
			t.Fatalf("query %d name %q", i, outs[i].Name())
		}
	}
}

func TestGroupByHashMultiEmpty(t *testing.T) {
	got, err := GroupByHashMulti(mkTable(10, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("empty query list should return nil")
	}
}

func TestGroupByHashMultiBadColumnError(t *testing.T) {
	tb := mkTable(10, 2)
	_, err := GroupByHashMulti(tb, []MultiQuery{{GroupCols: []int{99}, Aggs: []Agg{CountStar()}}})
	if err == nil {
		t.Fatal("no error on out-of-range column")
	}
}

func TestGroupByHashMultiSingleQueryEquivalence(t *testing.T) {
	tb := mkTable(500, 33)
	outs, err := GroupByHashMulti(tb, []MultiQuery{
		{GroupCols: []int{1}, Aggs: []Agg{CountStar()}, OutName: "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	ref := refGroupBy(tb, []int{1}, -1)
	checkAgainstRef(t, out, ref, 1, 1, -1)
}
