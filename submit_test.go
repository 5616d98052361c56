package gbmqo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
)

// sameTable fails unless got and want agree on schema and every cell. The
// batching differential relies on exact Value equality, so the queries it
// runs stick to exact aggregates (COUNT, integer SUM, MIN, MAX) — float SUM
// is association-sensitive and not byte-stable across plan shapes.
func sameTable(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < got.NumCols(); c++ {
		if got.Col(c).Name() != want.Col(c).Name() || got.Col(c).Type() != want.Col(c).Type() {
			t.Fatalf("%s: col %d = %s %v, want %s %v", label, c,
				got.Col(c).Name(), got.Col(c).Type(), want.Col(c).Name(), want.Col(c).Type())
		}
	}
	for r := 0; r < got.NumRows(); r++ {
		for c := 0; c < got.NumCols(); c++ {
			if g, w := got.Col(c).Value(r), want.Col(c).Value(r); g != w {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", label, r, c, g, w)
			}
		}
	}
}

// randomExactQueries builds n random Group By requests over lineitem's
// string/int columns with exact aggregates only.
func randomExactQueries(r *rand.Rand, n int) []GroupQuery {
	groupCols := []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct", "l_quantity"}
	aggPool := []Agg{
		CountStar(),
		{Kind: AggCount, Col: 1, Name: "count_partkey"},
		{Kind: AggSum, Col: 4, Name: "sum_qty"}, // l_quantity: integer SUM is exact
		{Kind: AggMin, Col: 4, Name: "min_qty"},
		{Kind: AggMax, Col: 4, Name: "max_qty"},
	}
	out := make([]GroupQuery, n)
	for i := range out {
		cols := append([]string(nil), groupCols...)
		r.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		q := GroupQuery{Cols: cols[:1+r.Intn(3)]}
		perm := r.Perm(len(aggPool))
		for _, ai := range perm[:1+r.Intn(3)] {
			q.Aggs = append(q.Aggs, aggPool[ai])
		}
		out[i] = q
	}
	return out
}

// soloReference computes each query individually through ExecuteQueries —
// the path Submit must match byte for byte.
func soloReference(t *testing.T, db *DB, queries []GroupQuery) []*Table {
	t.Helper()
	li, _ := db.Table("lineitem")
	out := make([]*Table, len(queries))
	for i, q := range queries {
		ords, err := db.resolveCols(li, q.Cols)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := db.ExecuteQueries("lineitem", []GroupQuery{q}, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rep.Results[colset.Of(ords...)]
	}
	return out
}

// TestSubmitDifferentialRandomized: every answer — concurrent Submits, and
// each trial asked again as one page — must be cell-for-cell identical to
// the same queries executed one at a time. A page runs its distinct queries
// as exactly one engine run. The last trial is a 12-query dashboard that
// asks some sets under several aggregate lists.
func TestSubmitDifferentialRandomized(t *testing.T) {
	db := openWithLineitem(t, 6000)
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true, Parallel: true}})
	defer db.StopBatching()
	r := rand.New(rand.NewSource(11))
	var trials [][]GroupQuery
	for trial := 0; trial < 4; trial++ {
		trials = append(trials, randomExactQueries(r, 3+r.Intn(6)))
	}
	sumQty := Agg{Kind: AggSum, Col: 4, Name: "sum_qty"}
	minQty := Agg{Kind: AggMin, Col: 4, Name: "min_qty"}
	trials = append(trials, []GroupQuery{
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
	})
	for trial, queries := range trials {
		want := soloReference(t, db, queries)
		got := make([]*Table, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q GroupQuery) {
				defer wg.Done()
				got[i], _, errs[i] = db.Submit(context.Background(), "lineitem", q)
			}(i, q)
		}
		wg.Wait()
		for i := range queries {
			if errs[i] != nil {
				t.Fatalf("trial %d query %d: %v", trial, i, errs[i])
			}
			sameTable(t, fmt.Sprintf("trial %d query %d (%v)", trial, i, queries[i].Cols), got[i], want[i])
		}

		before, _ := db.BatchStats()
		page := db.SubmitPage(context.Background(), "lineitem", queries)
		after, _ := db.BatchStats()
		for i, a := range page {
			if a.Err != nil {
				t.Fatalf("trial %d page query %d: %v", trial, i, a.Err)
			}
			sameTable(t, fmt.Sprintf("trial %d page query %d (%v)", trial, i, queries[i].Cols), a.Table, want[i])
			if a.Info.BatchRequests != len(queries) {
				t.Fatalf("trial %d page query %d: info %+v, want one run of the whole page", trial, i, a.Info)
			}
		}
		if runs := after.Batches - before.Batches; runs != 1 {
			t.Fatalf("trial %d: the page made %d runs, want 1", trial, runs)
		}
	}
}

// TestSubmitPageDuplicatesAndAggListsMatchSolo: a page that repeats queries
// and asks one set under several aggregate lists answers every position
// exactly as a solo ExecuteQueries does — repeats share one table, and each
// list gets exactly its own columns — through SubmitPage and SubmitSQL
// alike. The page makes one run per aggregate list of its most-asked set:
// the page run carries every set's first list, and each further list runs
// as a follow-up.
func TestSubmitPageDuplicatesAndAggListsMatchSolo(t *testing.T) {
	db := openWithLineitem(t, 5000)
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true}})
	defer db.StopBatching()
	sumQty := Agg{Kind: AggSum, Col: 4, Name: "sum_qty"}
	minQty := Agg{Kind: AggMin, Col: 4, Name: "min_qty"}
	otherMin := Agg{Kind: AggMax, Col: 4, Name: "min_qty"} // same name, another aggregate
	for _, tc := range []struct {
		name              string
		queries           []GroupQuery
		distinct, repeats int
		followUps         int64
		deduped           map[int]int // repeat position → first position
	}{
		{"two lists", []GroupQuery{
			{Cols: []string{"l_shipmode"}},
			{Cols: []string{"l_returnflag", "l_linestatus"}},
			{Cols: []string{"l_shipmode"}, Aggs: []Agg{sumQty}},
		}, 3, 3, 1, nil},
		{"four lists with a name collision", []GroupQuery{
			{Cols: []string{"l_shipmode"}},
			{Cols: []string{"l_shipmode"}, Aggs: []Agg{sumQty, minQty}},
			{Cols: []string{"l_returnflag", "l_linestatus"}},
			{Cols: []string{"l_shipmode"}},
			{Cols: []string{"l_shipmode"}, Aggs: []Agg{minQty}},
			{Cols: []string{"l_shipmode"}, Aggs: []Agg{otherMin}},
			{Cols: []string{"l_shipmode"}, Aggs: []Agg{sumQty, minQty}},
		}, 5, 7, 3, map[int]int{3: 0, 6: 1}},
	} {
		want := soloReference(t, db, tc.queries)
		before, _ := db.BatchStats()
		page := db.SubmitPage(context.Background(), "lineitem", tc.queries)
		after, _ := db.BatchStats()
		for i, a := range page {
			if a.Err != nil {
				t.Fatalf("%s: query %d: %v", tc.name, i, a.Err)
			}
			sameTable(t, fmt.Sprintf("%s: query %d (%v %v)", tc.name, i, tc.queries[i].Cols, tc.queries[i].Aggs), a.Table, want[i])
			_, repeat := tc.deduped[i]
			if a.Info.BatchQueries != tc.distinct || a.Info.BatchRequests != tc.repeats || a.Info.Deduped != repeat {
				t.Fatalf("%s: query %d: info %+v, want %d distinct of %d, repeats deduped", tc.name, i, a.Info, tc.distinct, tc.repeats)
			}
		}
		for i, first := range tc.deduped {
			if page[i].Table != page[first].Table {
				t.Fatalf("%s: repeated query %d did not share query %d's table", tc.name, i, first)
			}
		}
		if after.Batches-before.Batches != 1 || after.FollowUps-before.FollowUps != tc.followUps {
			t.Fatalf("%s: stats moved %+v → %+v, want one page run with %d follow-ups", tc.name, before, after, tc.followUps)
		}
	}

	const stmt = `SELECT l_shipmode, l_linestatus, COUNT(*), MIN(l_quantity) AS mn FROM lineitem
		GROUP BY GROUPING SETS ((l_shipmode), (l_linestatus), (l_shipmode), (l_shipmode, l_linestatus))`
	wantSQL, err := db.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	gotSQL, err := db.SubmitSQL(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "SubmitSQL with a repeated set", gotSQL, wantSQL)
}

// TestSubmitDifferentialUnderPanics: with a failpoint intermittently panicking
// inside engine steps, every submission must either fail with the isolated
// typed error or succeed with results identical to a clean solo run — never
// silently return wrong data, never crash the process.
func TestSubmitDifferentialUnderPanics(t *testing.T) {
	db := openWithLineitem(t, 5000)
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true, Parallel: true}})
	defer db.StopBatching()
	r := rand.New(rand.NewSource(23))
	queries := randomExactQueries(r, 6)
	want := soloReference(t, db, queries) // reference computed before faults

	var fired atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && fired.Add(1)%5 == 0 {
			panic("injected step failure")
		}
	})
	defer exec.Testing.ClearFailPoint()

	for round := 0; round < 3; round++ {
		got := make([]*Table, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q GroupQuery) {
				defer wg.Done()
				got[i], _, errs[i] = db.Submit(context.Background(), "lineitem", q)
			}(i, q)
		}
		wg.Wait()
		for i := range queries {
			if errs[i] != nil {
				var ee *ExecError
				if !errors.As(errs[i], &ee) {
					t.Fatalf("round %d query %d: error %v (%T) is not the isolated ExecError", round, i, errs[i], errs[i])
				}
				continue
			}
			sameTable(t, fmt.Sprintf("round %d query %d", round, i), got[i], want[i])
		}
	}
}

// TestSubmitDifferentialUnderCancellation: submitters whose contexts expire
// get ctx.Err(); everyone else still gets byte-identical results.
func TestSubmitDifferentialUnderCancellation(t *testing.T) {
	db := openWithLineitem(t, 5000)
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true}})
	defer db.StopBatching()
	r := rand.New(rand.NewSource(31))
	queries := randomExactQueries(r, 8)
	want := soloReference(t, db, queries)

	cancelled, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure it has expired
	got := make([]*Table, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		ctx := context.Background()
		if i%3 == 0 {
			ctx = cancelled
		}
		wg.Add(1)
		go func(i int, ctx context.Context, q GroupQuery) {
			defer wg.Done()
			got[i], _, errs[i] = db.Submit(ctx, "lineitem", q)
		}(i, ctx, q)
	}
	wg.Wait()
	for i := range queries {
		if i%3 == 0 {
			if !errors.Is(errs[i], context.DeadlineExceeded) {
				t.Fatalf("query %d with expired ctx: err = %v", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		sameTable(t, fmt.Sprintf("query %d", i), got[i], want[i])
	}
}

// TestSubmitSQLMatchesQuery: SubmitSQL's reassembled GROUPING SETS result
// must be byte-identical to a solo Query of the same statement, and
// unbatchable statements must still work via the fallback path.
func TestSubmitSQLMatchesQuery(t *testing.T) {
	db := openWithLineitem(t, 4000)
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true}})
	defer db.StopBatching()
	for _, stmt := range []string{
		`SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem
		 GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))`,
		`SELECT COUNT(*) FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)`,
		`SELECT l_shipmode, COUNT(*), MIN(l_quantity) AS mn FROM lineitem GROUP BY ROLLUP(l_shipmode)`,
		// Unbatchable: WHERE goes down the solo fallback.
		`SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_quantity > 25 GROUP BY l_shipmode`,
	} {
		want, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		got, err := db.SubmitSQL(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		sameTable(t, stmt, got, want)
	}
}

// TestStatsSafeUnderConcurrentSubmitters: CacheStats, Metrics, WriteMetrics
// and BatchStats must be safe to call while submissions run — this test is
// the -race witness for the documented concurrency contract.
func TestStatsSafeUnderConcurrentSubmitters(t *testing.T) {
	db := Open(&Config{CacheBytes: 32 << 20})
	li, err := GenerateDataset("lineitem", 4000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(li)
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true}})
	defer db.StopBatching()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	r := rand.New(rand.NewSource(3))
	queries := randomExactQueries(r, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w*7+i)%len(queries)]
				if _, _, err := db.Submit(context.Background(), "lineitem", q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := db.CacheStats(); !ok {
					t.Error("cache stats unavailable")
					return
				}
				db.Metrics()
				var buf bytes.Buffer
				db.WriteMetrics(&buf)
				db.BatchStats()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	m := db.Metrics()
	if m["gbmqo_sched_submissions_total"] == 0 {
		t.Fatal("no submissions recorded")
	}
	if m["gbmqo_exec_runs_total"] == 0 {
		t.Fatal("no engine runs recorded")
	}
}
