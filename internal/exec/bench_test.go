package exec

import (
	"fmt"
	"slices"
	"testing"

	"gbmqo/internal/datagen"
	"gbmqo/internal/table"
)

// benchLineitem is the 100k-row lineitem both micro-benchmarks read.
func benchLineitem(b *testing.B) *table.Table {
	b.Helper()
	return datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 1})
}

// BenchmarkEmitCountComment times emission alone — key column plus COUNT
// column — of the near-unique l_comment COUNT(*), about 100 000 groups: the
// per-group cost of turning accumulator state into a result table. ns/group
// is reported beside ns/op.
func BenchmarkEmitCountComment(b *testing.B) {
	li := benchLineitem(b)
	cols, aggs := []int{datagen.LComment}, []Agg{CountStar()}
	// The aggregation's state, built by hand: group g is the g-th distinct
	// code in row order.
	group := map[uint32]int{}
	var firstRows []int32
	var counts []int64
	comment := li.Col(datagen.LComment)
	for row := range li.NumRows() {
		code := comment.Code(row)
		g, ok := group[code]
		if !ok {
			g = len(firstRows)
			group[code] = g
			firstRows, counts = append(firstRows, int32(row)), append(counts, 0)
		}
		counts[g]++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		accs := []accumulator{&countStarAcc{counts: slices.Clone(counts)}}
		b.StartTimer()
		emitGroups(li, cols, aggs, accs, firstRows, nil, "out")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(firstRows)), "ns/group")
}

// BenchmarkHashDateKey runs the sequential hash kernel over the 3-column
// date key (l_shipdate, l_commitdate, l_receiptdate) of 100k-row lineitem —
// a packed key probed a block at a time — reporting ns/row.
func BenchmarkHashDateKey(b *testing.B) {
	li := benchLineitem(b)
	cols := []int{datagen.LShipDate, datagen.LCommitDate, datagen.LReceiptDate}
	aggs := []Agg{CountStar()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupByHash(li, cols, aggs, "g")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(li.NumRows()), "ns/row")
}

// BenchmarkShareSplitSweep times Group Bys over the 100k-row lineitem at one
// and two shares, on grouping sets whose group counts sweep from a handful to
// one per row, each in the key mode the sequential chooser picks. It is the
// measurement behind mergeRowsPerGroup: a second share pays while its scan
// saving (rows/2 rows of scan) exceeds its merge (c rows of scan per group),
// so the groups/rows ratio at which w=2 stops beating w=1 gives
// c = rows / (2·groups). Regenerate with
//
//	go test ./internal/exec -run '^$' -bench ShareSplitSweep -benchtime 20x -count 5
//
// and record the table in EXPERIMENTS.md. groups is reported beside ns/op.
func BenchmarkShareSplitSweep(b *testing.B) {
	li := benchLineitem(b)
	sets := [][]int{
		{datagen.LReturnFlag, datagen.LLineStatus},
		{datagen.LShipMode, datagen.LQuantity},
		{datagen.LShipDate},
		{datagen.LLineNumber, datagen.LShipDate},
		{datagen.LShipInstruct, datagen.LShipMode, datagen.LCommitDate},
		{datagen.LLineNumber, datagen.LReturnFlag, datagen.LCommitDate, datagen.LReceiptDate},
		{datagen.LSuppKey, datagen.LLineNumber},
		{datagen.LPartKey},
		{datagen.LComment},
	}
	aggs := []Agg{CountStar()}
	for _, cols := range sets {
		groups := GroupByHash(li, cols, aggs, "g").NumRows()
		c := ChooseKernel(ChooserInput{Rows: li.NumRows(), GroupCols: len(cols), NDV: float64(groups),
			DenseDomain: DenseDomain(li, cols), Workers: 1})
		q := MultiQuery{GroupCols: cols, Aggs: aggs, OutName: "g", SizeHint: c.SizeHint, dense: c.Kind == KernelDense}
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("cols=%v/groups=%d/%v/w=%d", cols, groups, c.Kind, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := groupBy(nil, li, []MultiQuery{q}, w); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(groups), "groups")
			})
		}
	}
}

// BenchmarkGroupByPackedHash times the sequential packed-key hash kernel,
// presized for the exact group count as the planner's estimate would size
// it, over grouping sets of the 100k-row lineitem whose group counts run
// from 2 520 to near-unique: the three ship/commit/receipt dates (a merged
// node of every round), the dates with l_linestatus (PAIR-10's merge), four
// two-column sets in between and the near-unique {l_partkey, l_suppkey}.
// Each set runs under a sweep of sparseMaxSlots caps: cap=0 is the uniform
// 3/4 load the table had before the load rule, cap=4194304 keeps every table
// at 1/4, and the caps between place the crossover the shipped cap is taken
// from (see holds). ns/row, groups and the final slot count are reported.
// Regenerate with
//
//	go test ./internal/exec -run '^$' -bench GroupByPackedHash -benchtime 200x -count 5
//
// and record the table in EXPERIMENTS.md.
func BenchmarkGroupByPackedHash(b *testing.B) {
	li := benchLineitem(b)
	dates := []int{datagen.LShipDate, datagen.LCommitDate, datagen.LReceiptDate}
	sets := [][]int{
		dates,
		append([]int{datagen.LLineStatus}, dates...),
		{datagen.LSuppKey, datagen.LQuantity},
		{datagen.LPartKey, datagen.LLineNumber},
		{datagen.LPartKey, datagen.LShipMode},
		{datagen.LSuppKey, datagen.LShipDate},
		{datagen.LPartKey, datagen.LSuppKey},
	}
	shipped := sparseMaxSlots
	defer func() { sparseMaxSlots = shipped }()
	aggs := []Agg{CountStar()}
	for _, cols := range sets {
		groups := GroupByHash(li, cols, aggs, "g").NumRows()
		q := MultiQuery{GroupCols: cols, Aggs: aggs, OutName: "g", SizeHint: groups}
		for _, cap := range []int{0, 1 << 15, 1 << 16, 1 << 17, 1 << 18, groupHashMaxPresize} {
			sparseMaxSlots = cap
			b.Run(fmt.Sprintf("groups=%d/cap=%d", groups, cap), func(b *testing.B) {
				var slots int
				for i := 0; i < b.N; i++ {
					st := newQueryState(li, q, nil, blockLen(li.NumRows()), newAccs(aggs, li))
					if err := scanShare(nil, []*queryState{st}, 0, li.NumRows(), nil); err != nil {
						b.Fatal(err)
					}
					slots = len(st.ht.slots)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(li.NumRows()), "ns/row")
				b.ReportMetric(float64(groups), "groups")
				b.ReportMetric(float64(slots), "slots")
			})
		}
	}
}
