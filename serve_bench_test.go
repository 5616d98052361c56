package gbmqo

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// servePage is a 12-query dashboard over lineitem: eight COUNT(*) sets and
// four with other aggregate lists, one set asked under two.
func servePage() []GroupQuery {
	sumQty := Agg{Kind: AggSum, Col: 4, Name: "sum_qty"}
	minQty := Agg{Kind: AggMin, Col: 4, Name: "min_qty"}
	return []GroupQuery{
		{Cols: []string{"l_returnflag"}},
		{Cols: []string{"l_linestatus"}},
		{Cols: []string{"l_shipmode"}},
		{Cols: []string{"l_shipinstruct"}},
		{Cols: []string{"l_returnflag", "l_linestatus"}},
		{Cols: []string{"l_shipmode", "l_returnflag"}},
		{Cols: []string{"l_shipmode", "l_linestatus"}},
		{Cols: []string{"l_shipinstruct", "l_returnflag"}},
		{Cols: []string{"l_returnflag"}, Aggs: []Agg{sumQty}},
		{Cols: []string{"l_shipmode"}, Aggs: []Agg{sumQty, minQty}},
		{Cols: []string{"l_linestatus"}, Aggs: []Agg{minQty}},
		{Cols: []string{"l_shipmode", "l_shipinstruct"}},
	}
}

// BenchmarkServePageVsSolo measures what asking Group Bys together buys a
// caller of the page scheduler: "solo" answers the 12-query page as 12
// sequential Submits, one plan and one scan each; "page" hands the same
// queries to one SubmitPage, whose misses run as one shared GB-MQO plan. No
// result cache, so every iteration computes everything. With both legs run,
// it writes the ratio to BENCH_serve.json, the artifact checked in with the
// repo:
//
//	go test -run '^$' -bench BenchmarkServePageVsSolo -benchtime 20x .
func BenchmarkServePageVsSolo(b *testing.B) {
	const rows = 50_000
	li, err := GenerateDataset("lineitem", rows, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	queries := servePage()
	opts := BatchOptions{Exec: QueryOptions{SharedScan: true, Parallel: true}}
	leg := func(b *testing.B, ask func(db *DB)) (nsPerOp int64, runs float64) {
		db := Open(nil)
		db.Register(li)
		db.StartBatching(opts)
		defer db.StopBatching()
		ask(db) // builds the statistics, so timed iterations only plan and scan
		before, _ := db.BatchStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ask(db)
		}
		b.StopTimer()
		after, _ := db.BatchStats()
		return b.Elapsed().Nanoseconds() / int64(b.N), float64(after.Batches-before.Batches) / float64(b.N)
	}

	var soloNs, pageNs int64
	var soloRuns, pageRuns float64
	b.Run("solo", func(b *testing.B) {
		soloNs, soloRuns = leg(b, func(db *DB) {
			for _, q := range queries {
				if _, _, err := db.Submit(context.Background(), "lineitem", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("page", func(b *testing.B) {
		pageNs, pageRuns = leg(b, func(db *DB) {
			for _, a := range db.SubmitPage(context.Background(), "lineitem", queries) {
				if a.Err != nil {
					b.Fatal(a.Err)
				}
			}
		})
	})
	if soloNs == 0 || pageNs == 0 {
		return // a leg was filtered out; nothing to report
	}
	if pageRuns != 1 {
		b.Fatalf("the page made %.1f runs per iteration, want 1", pageRuns)
	}
	speedup := float64(soloNs) / float64(pageNs)
	art := map[string]any{
		"bench":          "ServePageVsSolo",
		"rows":           rows,
		"queries":        len(queries),
		"solo_ns_per_op": soloNs,
		"solo_runs":      soloRuns,
		"page_ns_per_op": pageNs,
		"page_runs":      pageRuns,
		"speedup":        speedup,
		"command":        "go test -run '^$' -bench BenchmarkServePageVsSolo -benchtime 20x .",
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("solo %.2fms, page %.2fms, speedup %.2fx", float64(soloNs)/1e6, float64(pageNs)/1e6, speedup)
}
