package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/table"
)

// fp is the byte-identity fingerprint used throughout: column names plus the
// row image, the same material the result cache checksums. Two tables with
// equal fingerprints are byte-identical for every consumer in the stack.
func fp(tb *table.Table) []byte {
	var buf bytes.Buffer
	for _, c := range tb.ColNames() {
		buf.WriteString(c)
		buf.WriteByte(0)
	}
	img, _ := tb.RowImage()
	buf.Write(img)
	return buf.Bytes()
}

// assertIdentical requires the sharded run to reproduce the unsharded result
// byte-identically for every requested set.
func assertIdentical(t *testing.T, label string, sets []colset.Set, want, got *engine.RunResult) {
	t.Helper()
	for _, s := range sets {
		wt, gt := want.Report.Results[s], got.Report.Results[s]
		if wt == nil || gt == nil {
			t.Fatalf("%s: set %v: missing result (unsharded %v, sharded %v)", label, s, wt != nil, gt != nil)
		}
		if !bytes.Equal(fp(wt), fp(gt)) {
			t.Fatalf("%s: set %v differs from unsharded reference\nunsharded:\n%s\nsharded:\n%s",
				label, s, wt.FormatRows(20), gt.FormatRows(20))
		}
	}
}

// TestShardDifferentialRandomized is the core acceptance suite: randomized
// grouping sets, aggregate mixes, per-set aggregates, strategies and exec
// configurations (sequential hash, parallel, shared-scan, tight memory
// budget — steering through the hash/dense/sort kernels), each compared
// byte-identically against unsharded execution at shard counts 1, 2, 4 and 8.
func TestShardDifferentialRandomized(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 6000, Seed: 7})
	lowNDV := []int{3, 4, 8, 9, 13, 14}
	aggPool := []exec.Agg{
		exec.CountStar(),
		{Kind: exec.AggCount, Col: 0, Name: "cnt_ok"},
		{Kind: exec.AggSum, Col: 4, Name: "sum_qty"},
		{Kind: exec.AggMin, Col: 10, Name: "min_ship"},
		{Kind: exec.AggMax, Col: 4, Name: "max_qty"},
	}
	strategies := []engine.Strategy{engine.StrategyGBMQO, engine.StrategyNaive, engine.StrategyGroupingSets}
	type execCfg struct {
		parallel    bool
		parallelism int
		sharedScan  bool
		memBudget   int64
	}
	cfgs := []execCfg{
		{},
		{parallel: true, parallelism: 2},
		{parallel: true, sharedScan: true},
		{memBudget: 1 << 18},
		{parallelism: -1},
	}

	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			eng := engine.New(nil)
			eng.Catalog().Register(li)
			co, err := New(eng.Catalog(), Options{Shards: n})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(1000 + n)))
			for trial := 0; trial < 8; trial++ {
				seen := map[colset.Set]bool{}
				var sets []colset.Set
				for len(sets) < 2+r.Intn(3) {
					var s colset.Set
					for s.IsEmpty() {
						for _, c := range lowNDV {
							if r.Intn(3) == 0 {
								s = s.Add(c)
							}
						}
					}
					if !seen[s] {
						seen[s] = true
						sets = append(sets, s)
					}
				}
				aggs := aggPool[:1+r.Intn(len(aggPool))]
				var perSet map[colset.Set][]exec.Agg
				if r.Intn(2) == 0 {
					perSet = map[colset.Set][]exec.Agg{}
					for _, s := range sets {
						if r.Intn(2) == 0 {
							perSet[s] = aggPool[r.Intn(3) : 3+r.Intn(3)]
						}
					}
				}
				cfg := cfgs[trial%len(cfgs)]
				req := engine.Request{
					Table:       "lineitem",
					Sets:        sets,
					Aggs:        aggs,
					PerSetAggs:  perSet,
					Strategy:    strategies[trial%len(strategies)],
					Parallel:    cfg.parallel,
					Parallelism: cfg.parallelism,
					SharedScan:  cfg.sharedScan,
					MemBudget:   cfg.memBudget,
				}
				want, err := eng.Run(req)
				if err != nil {
					t.Fatalf("trial %d: unsharded: %v", trial, err)
				}
				got, err, handled := co.Route(req)
				if !handled {
					t.Fatalf("trial %d: router declined a shardable request", trial)
				}
				if err != nil {
					t.Fatalf("trial %d: sharded: %v", trial, err)
				}
				label := fmt.Sprintf("shards=%d trial=%d", n, trial)
				assertIdentical(t, label, sets, want, got)
				if got.Report.ShardsTotal != n {
					t.Fatalf("%s: ShardsTotal = %d, want %d", label, got.Report.ShardsTotal, n)
				}
				if got.Report.Partial || got.Report.ShardCoverage != 1 {
					t.Fatalf("%s: clean gather reported partial (coverage %v)", label, got.Report.ShardCoverage)
				}
			}
		})
	}
}

// TestShardKeyPartitioning runs the differential with an explicit hash key:
// equal key values co-locate, and results stay byte-identical.
func TestShardKeyPartitioning(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 5000, Seed: 13})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	co, err := New(eng.Catalog(), Options{Shards: 4, Keys: map[string]string{"lineitem": "l_shipmode"}})
	if err != nil {
		t.Fatal(err)
	}
	// Every l_shipmode value must live on exactly one shard.
	perShard := 0
	for i := 0; i < 4; i++ {
		if co.shards[i].Rows("lineitem") > 0 {
			perShard++
		}
	}
	if perShard == 0 {
		t.Fatal("no shard holds any rows")
	}
	sets := []colset.Set{colset.Of(14), colset.Of(8, 14), colset.Of(9)}
	req := engine.Request{Table: "lineitem", Sets: sets,
		Aggs: []exec.Agg{exec.CountStar(), {Kind: exec.AggSum, Col: 4, Name: "sq"}}}
	want, err := eng.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err, handled := co.Route(req)
	if !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	assertIdentical(t, "keyed", sets, want, got)

	// Unknown key table / column are errors at New time.
	if _, err := New(eng.Catalog(), Options{Shards: 2, Keys: map[string]string{"nope": "x"}}); err == nil {
		t.Fatal("unknown key table accepted")
	}
	if _, err := New(eng.Catalog(), Options{Shards: 2, Keys: map[string]string{"lineitem": "nope"}}); err == nil {
		t.Fatal("unknown key column accepted")
	}
}

// TestShardMergeNullsAndFloats exercises the merge's NULL semantics (SUM/MIN/
// MAX skip NULL partials; a group whose every value is NULL stays NULL) and
// float SUM with reorder-exact values, on a deliberately uneven shard count.
func TestShardMergeNullsAndFloats(t *testing.T) {
	tb := table.New("nf", []table.ColumnDef{
		{Name: "k", Typ: table.TString},
		{Name: "f", Typ: table.TFloat64},
		{Name: "i", Typ: table.TInt64},
	})
	r := rand.New(rand.NewSource(5))
	keys := []string{"a", "b", "c", "d", "allnull"}
	for row := 0; row < 900; row++ {
		k := table.Str(keys[r.Intn(len(keys))])
		if r.Intn(7) == 0 {
			k = table.Null(table.TString)
		}
		f := table.Float(0.25 * float64(r.Intn(40)))
		if r.Intn(5) == 0 || (k.S == "allnull" && !k.Null) {
			f = table.Null(table.TFloat64)
		}
		i := table.Int(int64(r.Intn(50)))
		if r.Intn(4) == 0 {
			i = table.Null(table.TInt64)
		}
		tb.AppendRow(k, f, i)
	}
	eng := engine.New(nil)
	eng.Catalog().Register(tb)
	co, err := New(eng.Catalog(), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	sets := []colset.Set{colset.Of(0)}
	req := engine.Request{Table: "nf", Sets: sets, Aggs: []exec.Agg{
		exec.CountStar(),
		{Kind: exec.AggCount, Col: 2, Name: "cnt_i"},
		{Kind: exec.AggSum, Col: 1, Name: "sum_f"},
		{Kind: exec.AggSum, Col: 2, Name: "sum_i"},
		{Kind: exec.AggMin, Col: 1, Name: "min_f"},
		{Kind: exec.AggMax, Col: 2, Name: "max_i"},
	}}
	want, err := eng.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err, handled := co.Route(req)
	if !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	assertIdentical(t, "nulls", sets, want, got)
}

// TestShardRouteDeclines pins the fallback surface: everything the sharded
// path cannot serve byte-identically must be declined (handled=false), never
// mis-served.
func TestShardRouteDeclines(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 500, Seed: 3})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	co, err := New(eng.Catalog(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	decline := func(label string, req engine.Request) {
		t.Helper()
		if _, _, handled := co.Route(req); handled {
			t.Fatalf("%s: router accepted an unshardable request", label)
		}
	}
	ok := engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(8)}}
	if _, _, handled := co.Route(ok); !handled {
		t.Fatal("baseline request declined")
	}

	decline("unknown table", engine.Request{Table: "nope", Sets: []colset.Set{colset.Of(0)}})
	decline("no sets", engine.Request{Table: "lineitem"})
	decline("out-of-range set", engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(16)}})
	decline("avg aggregate", engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(8)},
		Aggs: []exec.Agg{{Kind: exec.AggAvg, Col: 4, Name: "avg_qty"}}})
	decline("hidden agg name", engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(8)},
		Aggs: []exec.Agg{{Kind: exec.AggSum, Col: 4, Name: FirstAgg}}})
	decline("avg in per-set aggs", engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(8)},
		PerSetAggs: map[colset.Set][]exec.Agg{colset.Of(8): {{Kind: exec.AggAvg, Col: 4, Name: "a"}}}})

	// Re-registering the table bumps the catalog version: the snapshot is
	// stale and the router must fall back rather than serve old rows.
	eng.Catalog().Register(datagen.Lineitem(datagen.LineitemOpts{Rows: 600, Seed: 4}))
	decline("re-registered table", ok)
}

// forcedOpenCoordinator builds a 4-shard coordinator whose breaker config
// trips on the first recorded failure and stays open for an hour.
func forcedOpenCoordinator(t *testing.T, eng *engine.Engine) *Coordinator {
	t.Helper()
	co, err := New(eng.Catalog(), Options{Shards: 4,
		Breaker: fault.Config{Window: 4, MinSamples: 1, FailureRate: 0.01, OpenFor: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestShardForcedOpenPartial is the acceptance scenario: with one shard's
// breaker forced open, an AllowPartial request merges the survivors with
// accurate ShardsFailed and coverage — never a hang, never a silent short
// count.
func TestShardForcedOpenPartial(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 4000, Seed: 21})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	co := forcedOpenCoordinator(t, eng)
	co.Breaker(2).RecordErr(errors.New("injected disk failure"))

	set := colset.Of(14)
	req := engine.Request{Table: "lineitem", Sets: []colset.Set{set, colset.Of(8, 9)},
		Aggs: []exec.Agg{exec.CountStar(), {Kind: exec.AggSum, Col: 4, Name: "sq"}}, AllowPartial: true}
	res, err, handled := co.Route(req)
	if !handled {
		t.Fatal("router declined")
	}
	if err != nil {
		t.Fatalf("AllowPartial gather failed outright: %v", err)
	}
	rep := res.Report
	if !rep.Partial || len(rep.ShardsFailed) != 1 || rep.ShardsFailed[0].Shard != 2 {
		t.Fatalf("failure attribution wrong: partial=%v failed=%v", rep.Partial, rep.ShardsFailed)
	}
	var oe *fault.OpenError
	if !errors.As(rep.ShardsFailed[0].Err, &oe) {
		t.Fatalf("shard failure cause is %T, want *fault.OpenError", rep.ShardsFailed[0].Err)
	}
	ti := co.info["lineitem"]
	covered := ti.total - ti.perShard[2]
	if want := float64(covered) / float64(ti.total); math.Abs(rep.ShardCoverage-want) > 1e-9 {
		t.Fatalf("coverage = %v, want %v", rep.ShardCoverage, want)
	}
	// The short count must be exactly the surviving shards' rows — partial,
	// but never silently wrong.
	rt := rep.Results[set]
	var total int64
	for r := 0; r < rt.NumRows(); r++ {
		total += rt.Col(1).Value(r).I
	}
	if total != int64(covered) {
		t.Fatalf("merged COUNT(*) sums to %d, want covered rows %d", total, covered)
	}
	// The breaker snapshot carries the why.
	if st := co.BreakerStates()[2]; st.State != fault.StateOpen || st.LastFailure != "injected disk failure" {
		t.Fatalf("breaker snapshot = %+v", st)
	}
}

// TestShardForcedOpenFailFast: the same forced-open shard without
// AllowPartial must fail with a typed *Error naming the shard, wrapping the
// open-breaker cause.
func TestShardForcedOpenFailFast(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 2000, Seed: 22})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	co := forcedOpenCoordinator(t, eng)
	co.Breaker(1).RecordErr(errors.New("forced"))

	req := engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(8)}}
	_, err, handled := co.Route(req)
	if !handled {
		t.Fatal("router declined")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *shard.Error", err, err)
	}
	if se.Shard != 1 || se.Shards != 4 {
		t.Fatalf("attribution: %+v", se)
	}
	var oe *fault.OpenError
	if !errors.As(err, &oe) {
		t.Fatal("open-breaker cause not reachable through Unwrap")
	}

	// All shards open: even AllowPartial has nothing to merge and must error.
	for i := 0; i < 4; i++ {
		co.Breaker(i).RecordErr(errors.New("forced"))
	}
	req.AllowPartial = true
	if _, err, _ := co.Route(req); err == nil {
		t.Fatal("all-shards-open AllowPartial gather returned a result")
	}
}

// TestShardHedgeRace forces one straggling primary (a sleeping failpoint
// hook) with hedging armed: the hedge must fire, win, and the merged result
// must stay byte-identical — the raced loser is never double-merged.
func TestShardHedgeRace(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 2000, Seed: 31})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	sets := []colset.Set{colset.Of(14), colset.Of(8, 9)}
	req := engine.Request{Table: "lineitem", Sets: sets,
		Aggs: []exec.Agg{exec.CountStar(), {Kind: exec.AggSum, Col: 4, Name: "sq"}}}
	want, err := eng.Run(req)
	if err != nil {
		t.Fatal(err)
	}

	co, err := New(eng.Catalog(), Options{Shards: 2, HedgeAfter: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "shard.exec" && fired.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond)
		}
	})
	defer exec.Testing.ClearFailPoint()

	got, err, handled := co.Route(req)
	if !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	assertIdentical(t, "hedged", sets, want, got)
	if got.Report.HedgesFired < 1 {
		t.Fatalf("no hedge fired (report %+v)", got.Report)
	}
	if got.Report.HedgesWon < 1 {
		t.Fatalf("hedge lost to a primary sleeping 150ms (fired %d)", got.Report.HedgesFired)
	}
	if got.Report.Partial {
		t.Fatal("hedged gather reported partial")
	}
}

// TestShardRetryDegradation: a failpoint that panics exactly once on
// shard.exec must be absorbed by the shard retry loop (MaxAttempts 2) and the
// result must still be byte-identical, with the retry accounted.
func TestShardRetryDegradation(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 2000, Seed: 33})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	sets := []colset.Set{colset.Of(14)}
	req := engine.Request{Table: "lineitem", Sets: sets, Aggs: []exec.Agg{exec.CountStar()}}
	want, err := eng.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(eng.Catalog(), Options{Shards: 4, Retry: fault.Policy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "shard.exec" && fired.Add(1) == 1 {
			panic("injected shard fault")
		}
	})
	defer exec.Testing.ClearFailPoint()
	got, err, handled := co.Route(req)
	if !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	assertIdentical(t, "retried", sets, want, got)
	if got.Report.ShardRetries != 1 {
		t.Fatalf("ShardRetries = %d, want 1", got.Report.ShardRetries)
	}
	// The same single fault with a one-attempt budget and AllowPartial must
	// instead produce an attributed partial.
	exec.Testing.ClearFailPoint()
	co1, err := New(eng.Catalog(), Options{Shards: 4, Retry: fault.Policy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fired.Store(0)
	exec.Testing.SetFailPoint(func(site string) {
		if site == "shard.exec" && fired.Add(1) == 1 {
			panic("injected shard fault")
		}
	})
	preq := req
	preq.AllowPartial = true
	res, err, handled := co1.Route(preq)
	if !handled || err != nil {
		t.Fatalf("partial: handled=%v err=%v", handled, err)
	}
	rep := res.Report
	if !rep.Partial || len(rep.ShardsFailed) != 1 {
		t.Fatalf("partial attribution: partial=%v failed=%v", rep.Partial, rep.ShardsFailed)
	}
	lost := rep.ShardsFailed[0].Shard
	ti := co1.info["lineitem"]
	covered := ti.total - ti.perShard[lost]
	rt := rep.Results[sets[0]]
	var totalCnt int64
	for r := 0; r < rt.NumRows(); r++ {
		totalCnt += rt.Col(1).Value(r).I
	}
	if totalCnt != int64(covered) {
		t.Fatalf("partial COUNT(*) sums to %d, want %d", totalCnt, covered)
	}
}

// TestShardGatherGoroutineHygiene drives many gathers (with hedging and
// injected faults) and requires the goroutine count to settle back to
// baseline: nothing may outlive a gather.
func TestShardGatherGoroutineHygiene(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 2000, Seed: 41})
	eng := engine.New(nil)
	eng.Catalog().Register(li)
	co, err := New(eng.Catalog(), Options{Shards: 4, Retry: fault.Policy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond},
		HedgeAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	var fired atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		switch site {
		case "shard.exec":
			n := fired.Add(1)
			if n%7 == 0 {
				panic("injected")
			}
			if n%5 == 0 {
				time.Sleep(3 * time.Millisecond) // force hedges
			}
		case "shard.merge":
			if fired.Add(1)%11 == 0 {
				panic("injected")
			}
		}
	})
	req := engine.Request{Table: "lineitem", Sets: []colset.Set{colset.Of(14), colset.Of(8)}}
	for i := 0; i < 30; i++ {
		r := req
		r.AllowPartial = i%2 == 0
		co.Route(r) // errors are fine; leaks are not
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
