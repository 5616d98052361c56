package exec

import (
	"slices"
	"testing"

	"gbmqo/internal/datagen"
	"gbmqo/internal/table"
)

// benchLineitem is the 100k-row lineitem both micro-benchmarks read, with its
// scan image built up front so no benchmark times the image build.
func benchLineitem(b *testing.B) *table.Table {
	b.Helper()
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 1})
	li.RowImage()
	return li
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
	for row, code := range li.Col(datagen.LComment).Codes() {
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
