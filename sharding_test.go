package gbmqo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
)

// shardFP fingerprints a result table for byte-identity comparison.
func shardFP(tb *Table) []byte {
	var buf bytes.Buffer
	for _, c := range tb.ColNames() {
		buf.WriteString(c)
		buf.WriteByte(0)
	}
	img, _ := tb.RowImage()
	buf.Write(img)
	return buf.Bytes()
}

var shardingSQL = []string{
	"SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode",
	"SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem " +
		"GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))",
	"SELECT l_shipmode, l_returnflag, COUNT(*) FROM lineitem GROUP BY CUBE (l_shipmode, l_returnflag)",
	"SELECT l_shipinstruct, MIN(l_quantity), MAX(l_quantity) FROM lineitem " +
		"GROUP BY ROLLUP (l_shipinstruct, l_shipmode)",
}

// TestShardingSQLDifferential runs full SQL statements (GROUPING SETS, CUBE,
// ROLLUP) through a sharded DB at several shard counts and requires the
// output byte-identical to an unsharded DB over the same table — and that
// the sharded path actually served them (ShardsTotal set), so the test can
// never pass via silent fallback.
func TestShardingSQLDifferential(t *testing.T) {
	li, err := GenerateDataset("lineitem", 5000, 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := Open(nil)
	plain.Register(li)
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db := Open(nil)
			db.Register(li)
			if err := db.EnableSharding(ShardOptions{Shards: n}); err != nil {
				t.Fatal(err)
			}
			if db.Sharding() != n {
				t.Fatalf("Sharding() = %d, want %d", db.Sharding(), n)
			}
			for _, stmt := range shardingSQL {
				want, err := plain.QueryWith(stmt, QueryOptions{})
				if err != nil {
					t.Fatalf("unsharded %q: %v", stmt, err)
				}
				got, err := db.QueryWith(stmt, QueryOptions{})
				if err != nil {
					t.Fatalf("sharded %q: %v", stmt, err)
				}
				if got.Report == nil || got.Report.ShardsTotal != n {
					t.Fatalf("%q did not run sharded (report %+v)", stmt, got.Report)
				}
				if !bytes.Equal(shardFP(want.Table), shardFP(got.Table)) {
					t.Fatalf("%q differs from unsharded:\nwant:\n%s\ngot:\n%s",
						stmt, want.Table.FormatRows(30), got.Table.FormatRows(30))
				}
			}
			// Disabling returns to plain execution.
			db.DisableSharding()
			if db.Sharding() != 0 {
				t.Fatal("Sharding() != 0 after disable")
			}
			res, err := db.QueryWith(shardingSQL[0], QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.ShardsTotal != 0 {
				t.Fatal("request still routed through shards after DisableSharding")
			}
		})
	}
}

// TestShardingPartialPublicAPI exercises the public partial-result contract:
// a forced-open shard fails a strict query with a typed *ShardError, while
// AllowPartial serves the survivors with the loss attributed in the report.
func TestShardingPartialPublicAPI(t *testing.T) {
	db := openWithLineitem(t, 3000)
	if err := db.EnableSharding(ShardOptions{Shards: 4,
		Breaker: BreakerConfig{Window: 4, MinSamples: 1, FailureRate: 0.01, OpenFor: time.Hour}}); err != nil {
		t.Fatal(err)
	}
	db.shardCoordinator().Breaker(3).RecordErr(errors.New("injected outage"))

	stmt := "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode"
	_, err := db.QueryWith(stmt, QueryOptions{})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("strict query error is %T (%v), want *ShardError", err, err)
	}
	if se.Shard != 3 {
		t.Fatalf("ShardError names shard %d, want 3", se.Shard)
	}
	var oe *BreakerOpenError
	if !errors.As(err, &oe) {
		t.Fatal("open-breaker cause not reachable from ShardError")
	}

	res, err := db.QueryWith(stmt, QueryOptions{AllowPartial: true})
	if err != nil {
		t.Fatalf("AllowPartial query failed: %v", err)
	}
	rep := res.Report
	if !rep.Partial || len(rep.ShardsFailed) != 1 || rep.ShardsFailed[0].Shard != 3 {
		t.Fatalf("partial attribution: partial=%v failed=%v", rep.Partial, rep.ShardsFailed)
	}
	if rep.ShardCoverage <= 0 || rep.ShardCoverage >= 1 {
		t.Fatalf("coverage = %v, want in (0,1)", rep.ShardCoverage)
	}

	// The per-shard breaker surfaces in BreakerStates with its last failure.
	var found bool
	for _, b := range db.BreakerStates() {
		if b.Name == "shard-3" {
			found = true
			if b.State != fault.StateOpen || b.LastFailure != "injected outage" {
				t.Fatalf("shard-3 snapshot: %+v", b)
			}
		}
	}
	if !found {
		t.Fatal("shard-3 breaker missing from BreakerStates")
	}
}

// TestShardingMetricsSurface: sharded execution must register and move the
// gbmqo_shard_* series on the DB's registry. Shard retries and hedges count
// only there: gbmqo_exec_retries_total carries the request scope alone.
func TestShardingMetricsSurface(t *testing.T) {
	db := openWithLineitem(t, 2000)
	if err := db.EnableSharding(ShardOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	db.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"gbmqo_shard_gathers_total 1",
		"gbmqo_shard_partials_total",
		"gbmqo_shard_latency_seconds",
		`gbmqo_shard_exec_total{shard="0"}`,
		"gbmqo_shard_retries_total",
		"gbmqo_shard_hedges_fired_total",
		`gbmqo_exec_retries_total{scope="request"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	for _, scope := range []string{"shard", "hedge"} {
		if s := `gbmqo_exec_retries_total{scope="` + scope + `"}`; strings.Contains(out, s) {
			t.Fatalf("metrics output repeats a shard series as %s:\n%s", s, out)
		}
	}
}

// TestShardDrainWhileScattered is the shutdown-under-fire test: submissions
// whose gathers are mid-scatter (slowed by a failpoint) when Drain begins
// must all deliver a result or a clean error before Drain returns, and no
// goroutine may leak.
func TestShardDrainWhileScattered(t *testing.T) {
	li, err := GenerateDataset("lineitem", 8000, 23, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference results from a plain DB, computed before any fault hooks.
	ref := Open(nil)
	ref.Register(li)
	queries := []GroupQuery{
		{Cols: []string{"l_shipmode"}},
		{Cols: []string{"l_returnflag"}},
		{Cols: []string{"l_returnflag", "l_linestatus"}},
	}
	refFP := make([][]byte, len(queries))
	for i, q := range queries {
		res, _, err := ref.Submit(context.Background(), "lineitem", q)
		if err != nil {
			t.Fatal(err)
		}
		refFP[i] = shardFP(res)
	}
	ref.StopBatching()

	baseline := runtime.NumGoroutine()
	db := Open(nil)
	db.Register(li)
	if err := db.EnableSharding(ShardOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	db.StartBatching(BatchOptions{Exec: QueryOptions{SharedScan: true, Parallel: true}})

	// Slow every shard execution so Drain lands while gathers are scattered.
	exec.Testing.SetFailPoint(func(site string) {
		if site == "shard.exec" {
			time.Sleep(4 * time.Millisecond)
		}
	})
	defer exec.Testing.ClearFailPoint()

	const submitters = 12
	var wg sync.WaitGroup
	outcomes := make([]error, submitters)
	results := make([]*Table, submitters) // fingerprinted after the join:
	// deduped submissions share one result table, and RowImage materializes
	// lazily — hashing it concurrently would race on test-owned state.
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			res, _, err := db.Submit(ctx, "lineitem", queries[g%len(queries)])
			results[g], outcomes[g] = res, err
		}(g)
	}
	time.Sleep(3 * time.Millisecond) // let scatters begin
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := db.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every submitter must already be unblocked: nothing is delivered (or
	// stuck) past the drain.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("submitters still blocked after Close returned")
	}
	for g, err := range outcomes {
		if err != nil {
			if !errors.Is(err, ErrDraining) && !errors.Is(err, ErrBatcherClosed) {
				t.Fatalf("submitter %d: %v", g, err)
			}
			continue
		}
		if i := g % len(queries); !bytes.Equal(shardFP(results[g]), refFP[i]) {
			t.Fatalf("submitter %d: result differs from reference", g)
		}
	}
	exec.Testing.ClearFailPoint()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, n)
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
}
