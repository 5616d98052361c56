package gbmqo

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// tableRows extracts rows [lo,hi) of tb as append-ready value slices.
func tableRows(tb *Table, lo, hi int) [][]Value {
	rows := make([][]Value, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := make([]Value, tb.NumCols())
		for c := 0; c < tb.NumCols(); c++ {
			row[c] = tb.Col(c).Value(r)
		}
		rows = append(rows, row)
	}
	return rows
}

// rebuildFromScratch materializes a brand-new table — fresh dictionaries,
// cold images, no shared state — holding exactly src's logical rows in the
// same order. Aggregating it is the independent recompute the incremental
// path must match byte for byte.
func rebuildFromScratch(src *Table) *Table {
	defs := make([]table.ColumnDef, src.NumCols())
	for c := range defs {
		defs[c] = table.ColumnDef{Name: src.Col(c).Name(), Typ: src.Col(c).Type()}
	}
	out := table.New(src.Name(), defs)
	for r := 0; r < src.NumRows(); r++ {
		out.AppendRow(tableRows(src, r, r+1)[0]...)
	}
	return out
}

// appendDiffQueries is the query pool for the interleaving suite: lattice
// shapes with genuine subset chains (so refreshed ancestors serve dropped
// descendants), every mergeable aggregate, and an AVG (the invalidation
// fallback).
func appendDiffQueries() []GroupQuery {
	return []GroupQuery{
		{Cols: []string{"l_returnflag"}},
		{Cols: []string{"l_linestatus"}},
		{Cols: []string{"l_returnflag", "l_linestatus"}},
		{Cols: []string{"l_shipmode", "l_returnflag", "l_linestatus"}},
		{Cols: []string{"l_shipmode"}, Aggs: []Agg{
			{Kind: AggCountStar, Name: "cnt"},
			{Kind: AggSum, Col: datagen.LQuantity, Name: "sum_qty"}}},
		{Cols: []string{"l_shipinstruct", "l_shipmode"}, Aggs: []Agg{
			{Kind: AggMin, Col: datagen.LShipDate, Name: "min_sd"},
			{Kind: AggMax, Col: datagen.LShipDate, Name: "max_sd"}}},
		{Cols: []string{"l_shipinstruct"}, Aggs: []Agg{
			{Kind: exec.AggAvg, Col: datagen.LQuantity, Name: "avg_qty"}}},
	}
}

// TestAppendDifferentialRandomized is the end-to-end contract for streaming
// appends: random interleavings of DB.Append and multi-query executions —
// cache warm, lattice subset chains, AVG fallback, sharded and unsharded —
// where every answer must be byte-identical to a cold recompute over a table
// rebuilt from scratch with the same logical rows.
func TestAppendDifferentialRandomized(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(23 + shards)))
			base, err := GenerateDataset("lineitem", 2500, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := GenerateDataset("lineitem", 1200, 77, 0)
			if err != nil {
				t.Fatal(err)
			}
			db := Open(&Config{CacheBytes: 32 << 20})
			db.Register(base)
			if shards > 0 {
				if err := db.EnableSharding(ShardOptions{Shards: shards}); err != nil {
					t.Fatal(err)
				}
			}
			// The reference DB always holds a from-scratch rebuild of the
			// current logical table: no cache, no sharding, fresh dictionaries.
			ref := Open(nil)
			ref.Register(rebuildFromScratch(base))

			queries := appendDiffQueries()
			poolOff, appendsDone := 0, 0
			for step := 0; step < 28; step++ {
				if poolOff < pool.NumRows() && rng.Intn(3) == 0 {
					n := 40 + rng.Intn(120)
					if poolOff+n > pool.NumRows() {
						n = pool.NumRows() - poolOff
					}
					rep, err := db.Append("lineitem", tableRows(pool, poolOff, poolOff+n))
					if err != nil {
						t.Fatalf("step %d append: %v", step, err)
					}
					poolOff += n
					appendsDone++
					if rep.Rows != n || rep.TotalRows != base.NumRows()+poolOff {
						t.Fatalf("step %d append report = %+v", step, rep)
					}
					if rep.Delta != uint64(appendsDone) {
						t.Fatalf("step %d epoch delta = %d, want %d", step, rep.Delta, appendsDone)
					}
					cur, ok := db.Table("lineitem")
					if !ok {
						t.Fatal("table vanished")
					}
					ref.Register(rebuildFromScratch(cur))
					continue
				}
				// 1–3 distinct queries per execution, random planner options.
				idx := rng.Perm(len(queries))[:1+rng.Intn(3)]
				qs := make([]GroupQuery, len(idx))
				for i, j := range idx {
					qs[i] = queries[j]
				}
				opts := QueryOptions{SharedScan: rng.Intn(2) == 0, Parallel: rng.Intn(2) == 0}
				_, got, err := db.ExecuteQueries("lineitem", qs, opts)
				if err != nil {
					t.Fatalf("step %d query: %v", step, err)
				}
				_, want, err := ref.ExecuteQueries("lineitem", qs, QueryOptions{})
				if err != nil {
					t.Fatalf("step %d reference: %v", step, err)
				}
				if len(got.Results) != len(want.Results) {
					t.Fatalf("step %d result sets %d, want %d", step, len(got.Results), len(want.Results))
				}
				for set, wt := range want.Results {
					gt, ok := got.Results[set]
					if !ok {
						t.Fatalf("step %d missing result for %v", step, set)
					}
					if !bytes.Equal(shardFP(gt), shardFP(wt)) {
						t.Fatalf("step %d set %v differs from cold rebuild:\nwant:\n%s\ngot:\n%s",
							step, set, wt.FormatRows(20), gt.FormatRows(20))
					}
				}
			}
			if appendsDone == 0 {
				t.Fatal("interleaving never appended")
			}

			if shards > 0 {
				// The appends must have been propagated into the shard
				// partitions, not silently unsharded: a cache-bypassing
				// mergeable query still scatters across all shards.
				if db.Sharding() != shards {
					t.Fatalf("Sharding() = %d after appends", db.Sharding())
				}
				_, rep, err := db.ExecuteQueries("lineitem",
					[]GroupQuery{{Cols: []string{"l_shipmode"}}}, QueryOptions{NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				if rep.ShardsTotal != shards {
					t.Fatalf("post-append query ran on %d shards, want %d (append fell back to unsharded)",
						rep.ShardsTotal, shards)
				}
			}
		})
	}
}

// TestAppendStatsPublicAPI: DB.AppendStats surfaces epoch and row count.
func TestAppendStatsPublicAPI(t *testing.T) {
	base, err := GenerateDataset("lineitem", 800, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(&Config{CacheBytes: 8 << 20})
	db.Register(base)
	if len(db.AppendStats()) != 0 {
		t.Fatalf("append stats before any append: %+v", db.AppendStats())
	}
	if _, err := db.Append("lineitem", tableRows(base, 0, 50)); err != nil {
		t.Fatal(err)
	}
	as, ok := db.AppendStats()["lineitem"]
	if !ok || as.Delta != 1 || as.Rows != 850 {
		t.Fatalf("append stats = %+v ok=%v", as, ok)
	}
}

// TestAppendMetrics: the observability registry attributes appends, appended
// rows and refresh outcomes.
func TestAppendMetrics(t *testing.T) {
	base, err := GenerateDataset("lineitem", 1000, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(&Config{CacheBytes: 8 << 20})
	db.Register(base)
	if _, _, err := db.ExecuteQueries("lineitem",
		[]GroupQuery{{Cols: []string{"l_returnflag"}}}, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append("lineitem", tableRows(base, 0, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append("nope", nil); err == nil {
		t.Fatal("unknown table accepted")
	}
	m := db.Metrics()
	if m["gbmqo_appends_total"] != 1 {
		t.Fatalf("appends_total = %v", m["gbmqo_appends_total"])
	}
	if m["gbmqo_append_rows_total"] != 60 {
		t.Fatalf("append_rows_total = %v", m["gbmqo_append_rows_total"])
	}
	if m["gbmqo_append_errors_total"] != 1 {
		t.Fatalf("append_errors_total = %v", m["gbmqo_append_errors_total"])
	}
	if m["gbmqo_cache_refreshed_total"] < 1 {
		t.Fatalf("cache_refreshed_total = %v", m["gbmqo_cache_refreshed_total"])
	}
}

// TestStatsMetricsSurviveAppend: statistics survive an append, so after 256
// rows land on a 100 000-row table, a query answered from a cached ancestor
// draws no sample, which gbmqo_stats_samples_total on /metrics shows.
func TestStatsMetricsSurviveAppend(t *testing.T) {
	base, err := GenerateDataset("lineitem", 100_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(&Config{CacheBytes: 64 << 20})
	db.Register(base)
	anc := GroupQuery{Cols: []string{"l_returnflag", "l_linestatus", "l_shipmode"}}
	q := GroupQuery{Cols: []string{"l_returnflag", "l_shipmode"}}
	if _, _, err := db.ExecuteQueries("lineitem", []GroupQuery{anc, q}, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	if before["gbmqo_stats_samples_total"] < 1 || before["gbmqo_stats_built_total"] < 1 {
		t.Fatalf("statistics counters before the append: samples %v, built %v",
			before["gbmqo_stats_samples_total"], before["gbmqo_stats_built_total"])
	}
	if _, err := db.Append("lineitem", tableRows(base, 0, 256)); err != nil {
		t.Fatal(err)
	}
	_, rep, err := db.ExecuteQueries("lineitem", []GroupQuery{q}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.AncestorHits != 1 {
		t.Fatalf("query after the append: %+v, want one ancestor hit", rep.Cache)
	}
	after := db.Metrics()
	for _, name := range []string{"gbmqo_stats_samples_total", "gbmqo_stats_rows_profiled_total"} {
		if after[name] != before[name] {
			t.Fatalf("%s moved from %v to %v across an append and an ancestor roll-up", name, before[name], after[name])
		}
	}
}

// TestAppendBatchingFence: appends interleaved with Submit pages stay
// correct — a page's run reads one snapshot of the table, so its queries
// never straddle the epoch bump.
func TestAppendBatchingFence(t *testing.T) {
	base, err := GenerateDataset("lineitem", 1200, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(&Config{CacheBytes: 8 << 20})
	db.Register(base)
	db.StartBatching(BatchOptions{})
	defer db.StopBatching()

	q := GroupQuery{Cols: []string{"l_returnflag"}, Aggs: []Agg{
		{Kind: AggCountStar, Name: "cnt"},
		{Kind: AggSum, Col: datagen.LQuantity, Name: "sum_qty"}}}
	done := make(chan error, 1)
	var pre *Table
	go func() {
		var err error
		pre, _, err = db.Submit(context.Background(), "lineitem", q)
		done <- err
	}()
	// The append races the page's run, which answers from whichever snapshot
	// it began on.
	if _, err := db.Append("lineitem", tableRows(base, 0, 80)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if pre.NumRows() == 0 {
		t.Fatal("batched query returned nothing")
	}

	// A post-append submit must see the appended rows.
	post, _, err := db.Submit(context.Background(), "lineitem", q)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := db.Table("lineitem")
	ref := Open(nil)
	ref.Register(rebuildFromScratch(cur))
	want, _, err := ref.Submit(context.Background(), "lineitem", q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardFP(post), shardFP(want)) {
		t.Fatalf("post-append submit differs from cold rebuild:\nwant:\n%s\ngot:\n%s",
			want.FormatRows(20), post.FormatRows(20))
	}
}
