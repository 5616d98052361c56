package engine

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// BenchmarkRollForward times one append at serve_churn's shape: a
// 100 000-row lineitem, 28 cached COUNT(*) entries over three of its nine
// lowest-NDV columns each (no entry subsumes another, so every append rolls
// all 28 forward; about 53 000 cached groups between them), and 256-row appends sampled from the base rows. It
// reports ns and allocations per append and ns per cached group rolled.
//
//	go test -run '^$' -bench BenchmarkRollForward -benchmem ./internal/engine
func BenchmarkRollForward(b *testing.B) {
	e := New(stats.NewService(stats.Exact, 0, 1))
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 1})
	e.Catalog().Register(li)
	e.SetCache(cache.New(cache.Config{MaxBytes: 256 << 20}))

	type colNDV struct{ ord, ndv int }
	var low []colNDV
	for c := 0; c < li.NumCols(); c++ {
		if n := li.Col(c).DistinctCount(); n >= 2 && n <= 1000 {
			low = append(low, colNDV{c, n})
		}
	}
	sort.SliceStable(low, func(i, j int) bool { return low[i].ndv < low[j].ndv })
	low = low[:min(9, len(low))]
	// 28 of the 84 three-column sets, every other one from the finest down:
	// none is a subset of another, and they hold about as many groups as
	// the entries serve_churn rolls.
	var sets []colset.Set
	n := 0
	for i := len(low) - 1; i >= 0; i-- {
		for j := i - 1; j >= 0; j-- {
			for k := j - 1; k >= 0 && len(sets) < 28; k-- {
				if n++; n%2 == 0 {
					sets = append(sets, colset.Of(low[i].ord, low[j].ord, low[k].ord))
				}
			}
		}
	}
	for _, s := range sets {
		if _, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{s}, UseCache: true}); err != nil {
			b.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	batches := make([][][]table.Value, 64)
	for i := range batches {
		for r := 0; r < 256; r++ {
			row := rng.Intn(li.NumRows())
			batches[i] = append(batches[i], rowsOf(li, row, row+1)[0])
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	groups, rolled := 0, 0
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep, err := e.Append("lineitem", batches[i%len(batches)])
		wall += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		rolled += rep.Refreshed
		b.StopTimer()
		for _, r := range e.ResultCache().ResidentsAt("lineitem", rep.Version, rep.Delta) {
			groups += r.Table.NumRows()
		}
		b.StartTimer()
	}
	b.StopTimer()
	if rolled != len(sets)*b.N {
		b.Fatalf("%d entries rolled over %d appends, want %d each", rolled, b.N, len(sets))
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(groups), "ns/group")
	b.ReportMetric(float64(groups)/float64(b.N), "groups/append")
}
