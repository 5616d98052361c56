package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gbmqo"
	"gbmqo/internal/table"
)

// appendSites focuses the schedule on the streaming-append machinery plus the
// execution/cache layers a refresh flows through, so strikes actually land on
// the maintenance path rather than dissipating across the whole site list.
var appendSites = []string{
	"table.append",
	"cache.refresh",
	"cache.admit",
	"engine.step",
	"exec.hash.batch",
}

// chaosRows extracts rows [lo,hi) of tb as append-ready value slices.
func chaosRows(tb *gbmqo.Table, lo, hi int) [][]gbmqo.Value {
	rows := make([][]gbmqo.Value, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := make([]gbmqo.Value, tb.NumCols())
		for c := 0; c < tb.NumCols(); c++ {
			row[c] = tb.Col(c).Value(r)
		}
		rows = append(rows, row)
	}
	return rows
}

// rebuildExpected materializes, from scratch (fresh dictionaries, no shared
// state with the DB under test), the table the chaos run *should* have
// produced: every base row plus the pool rows whose appends reported success.
func rebuildExpected(base, pool *gbmqo.Table, poolOff int) *gbmqo.Table {
	defs := make([]table.ColumnDef, base.NumCols())
	for c := range defs {
		defs[c] = table.ColumnDef{Name: base.Col(c).Name(), Typ: base.Col(c).Type()}
	}
	out := table.New(base.Name(), defs)
	for _, row := range chaosRows(base, 0, base.NumRows()) {
		out.AppendRow(row...)
	}
	for _, row := range chaosRows(pool, 0, poolOff) {
		out.AppendRow(row...)
	}
	return out
}

// runAppendSeed is one append-chaos trial: arm a seed-derived schedule over
// the append/refresh failpoints, interleave streaming appends with warm
// queries, then verify the invariants — (1) every append either errors
// cleanly with the table byte-for-byte untouched (abort safety) or lands in
// full; (2) after disarming, every query over the survivor state is
// byte-identical to a from-scratch rebuild of exactly the rows whose appends
// reported success; (3) the cache never served corrupt bytes; (4) goroutines
// return to baseline.
func runAppendSeed(t *testing.T, seed int64) {
	baseline := runtime.NumGoroutine()
	base, err := gbmqo.GenerateDataset("lineitem", 4000, 31, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gbmqo.GenerateDataset("lineitem", 1500, 63, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := gbmqo.Open(&gbmqo.Config{CacheBytes: 8 << 20})
	db.Register(base)
	queries := chaosQueries()
	// Warm the cache fault-free so the appends have entries to maintain.
	for i, q := range queries {
		if _, _, err := db.ExecuteQueries("lineitem", []gbmqo.GroupQuery{q}, gbmqo.QueryOptions{}); err != nil {
			t.Fatalf("warmup query %d: %v", i, err)
		}
	}

	sched := NewSchedule(seed, appendSites, 4, 6)
	in := Install(sched)
	rng := rand.New(rand.NewSource(seed))
	expectRows, poolOff := base.NumRows(), 0
	for step := 0; step < 12; step++ {
		if step%2 == 0 && poolOff < pool.NumRows() {
			n := 100 + rng.Intn(100)
			if poolOff+n > pool.NumRows() {
				n = pool.NumRows() - poolOff
			}
			rep, err := db.Append("lineitem", chaosRows(pool, poolOff, poolOff+n))
			cur, ok := db.Table("lineitem")
			if !ok {
				t.Fatalf("%s: table vanished at step %d", sched, step)
			}
			if err != nil {
				// Abort safety: a failed append leaves the table exactly as
				// it was — same rows, and still fully queryable.
				if cur.NumRows() != expectRows {
					t.Errorf("%s: failed append left %d rows, want %d", sched, cur.NumRows(), expectRows)
				}
				continue
			}
			poolOff += n
			expectRows += n
			if rep.TotalRows != expectRows || cur.NumRows() != expectRows {
				t.Errorf("%s: append reported %d rows, table has %d, want %d",
					sched, rep.TotalRows, cur.NumRows(), expectRows)
			}
		} else {
			q := queries[rng.Intn(len(queries))]
			// Errors are acceptable while armed; wrong answers are caught by
			// the post-disarm verification below (any entry a faulty refresh
			// corrupted would still be resident and serve).
			_, _, _ = db.ExecuteQueries("lineitem", []gbmqo.GroupQuery{q}, gbmqo.QueryOptions{})
		}
	}
	in.Uninstall()
	t.Logf("%s: struck %d, appended %d of %d pool rows", sched, in.Struck(), poolOff, pool.NumRows())

	// Invariant 2: the survivor state answers every query byte-identically to
	// a from-scratch rebuild — twice, so both the compute path and the
	// maintained/re-admitted cache entries are checked.
	ref := gbmqo.Open(nil)
	ref.Register(rebuildExpected(base, pool, poolOff))
	for i, q := range queries {
		_, want, err := ref.ExecuteQueries("lineitem", []gbmqo.GroupQuery{q}, gbmqo.QueryOptions{})
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		for pass := 0; pass < 2; pass++ {
			_, got, err := db.ExecuteQueries("lineitem", []gbmqo.GroupQuery{q}, gbmqo.QueryOptions{})
			if err != nil {
				t.Fatalf("%s: query %d failed after faults disarmed: %v", sched, i, err)
			}
			for set, wt := range want.Results {
				gt := got.Results[set]
				if gt == nil || !bytes.Equal(tableBytes(gt), tableBytes(wt)) {
					t.Fatalf("%s: query %d pass %d differs from rebuilt reference", sched, i, pass)
				}
			}
		}
	}

	// Invariant 3: no corrupt cache entry was ever served.
	if st, ok := db.CacheStats(); ok && st.Corruptions != 0 {
		t.Errorf("%s: cache corruptions = %d", sched, st.Corruptions)
	}

	// Invariant 4: goroutine hygiene.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: baseline %d, now %d", sched, baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAppendChaosSeeds runs the append-chaos harness over a reproducible
// battery of seeds plus one time-derived wild seed (override with
// APPEND_CHAOS_SEED to replay a failure).
func TestAppendChaosSeeds(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runAppendSeed(t, seed) })
	}
	wild := time.Now().UnixNano()
	if env := os.Getenv("APPEND_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("APPEND_CHAOS_SEED = %q: %v", env, err)
		}
		wild = v
	}
	// Fixed subtest name, seed in the log (see TestChaosSeeds).
	t.Run("seed=wild", func(t *testing.T) {
		t.Logf("replay with APPEND_CHAOS_SEED=%d", wild)
		runAppendSeed(t, wild)
	})
}
