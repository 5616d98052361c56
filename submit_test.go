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

// TestSubmitDifferentialRandomized: concurrent batched submissions must be
// cell-for-cell identical to the same queries executed one at a time. The
// last trial is a 12-query dashboard, wider than one window: its windows
// must close full, averaging at least four queries per batch.
func TestSubmitDifferentialRandomized(t *testing.T) {
	db := openWithLineitem(t, 6000)
	db.StartBatching(BatchOptions{MaxBatch: 8, MaxWait: 25 * time.Millisecond,
		Exec: QueryOptions{SharedScan: true, Parallel: true}})
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
		before, _ := db.BatchStats()
		want := soloReference(t, db, queries)
		got := make([]*Table, len(queries))
		infos := make([]BatchInfo, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q GroupQuery) {
				defer wg.Done()
				got[i], infos[i], errs[i] = db.Submit(context.Background(), "lineitem", q)
			}(i, q)
		}
		wg.Wait()
		batched := false
		for i := range queries {
			if errs[i] != nil {
				t.Fatalf("trial %d query %d: %v", trial, i, errs[i])
			}
			sameTable(t, fmt.Sprintf("trial %d query %d (%v)", trial, i, queries[i].Cols), got[i], want[i])
			if infos[i].BatchQueries > 1 {
				batched = true
			}
		}
		if len(queries) > 1 && !batched {
			t.Fatalf("trial %d: %d concurrent submissions never shared a window", trial, len(queries))
		}
		if trial == len(trials)-1 {
			after, _ := db.BatchStats()
			if mean := float64(after.Submitted-before.Submitted) / float64(after.Batches-before.Batches); mean < 4 {
				t.Fatalf("dashboard trial averaged %.1f queries per batch, want >= 4", mean)
			}
		}
	}
}

// TestSubmitDifferentialUnderPanics: with a failpoint intermittently panicking
// inside engine steps, every submission must either fail with the isolated
// typed error or succeed with results identical to a clean solo run — never
// silently return wrong data, never crash the process.
func TestSubmitDifferentialUnderPanics(t *testing.T) {
	db := openWithLineitem(t, 5000)
	db.StartBatching(BatchOptions{MaxBatch: 8, MaxWait: 20 * time.Millisecond,
		Exec: QueryOptions{SharedScan: true, Parallel: true}})
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
	db.StartBatching(BatchOptions{MaxBatch: 16, MaxWait: 25 * time.Millisecond,
		Exec: QueryOptions{SharedScan: true}})
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
	db.StartBatching(BatchOptions{MaxWait: 10 * time.Millisecond, Exec: QueryOptions{SharedScan: true}})
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
	db.StartBatching(BatchOptions{MaxWait: 2 * time.Millisecond, Exec: QueryOptions{SharedScan: true}})
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
