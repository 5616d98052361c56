package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gbmqo"
	"gbmqo/internal/cache"
)

// roundStats is what one round's reports add up to: the three batches
// SC-12, PAIR-10 (DB.Execute) and CONT-8 (one GROUPING SETS statement through
// DB.QueryWith), answered one after another by one client.
type roundStats struct {
	wall        time.Duration
	execWall    time.Duration // sum of ExecReport.Wall
	sqlOverhead time.Duration // QueryWith wall - its Report.Wall - its Search.Elapsed
	contSearch  gbmqo.SearchStats
	mergeTime   time.Duration
	rowsScanned int64
	tempTables  int
	peakMem     int64
	kernels     map[string]int
	shardsTotal int
	retries     int
	hedges      int
	// sums fingerprints every result table, in input order, when asked for.
	sums []uint64
}

func (rs *roundStats) add(rep *gbmqo.ExecReport) {
	rs.execWall += rep.Wall
	rs.mergeTime += rep.MergeTime
	rs.rowsScanned += rep.RowsScanned
	rs.tempTables += rep.TempTables
	rs.peakMem = max(rs.peakMem, rep.PeakMem)
	rs.shardsTotal = max(rs.shardsTotal, rep.ShardsTotal)
	rs.retries += rep.ShardRetries + len(rep.Retries)
	rs.hedges += rep.HedgesFired
	for _, k := range rep.Kernels {
		name, _, _ := strings.Cut(k.Kernel, "-") // index-stream, index-counts -> index
		rs.kernels[name]++
	}
}

// runRound answers the three batches on db and times the whole.
func runRound(db *gbmqo.DB, t *gbmqo.Table, in batchInputs, o gbmqo.QueryOptions, tr *tracer, wantSums bool) (roundStats, error) {
	rs := roundStats{kernels: map[string]int{}}
	req := tr.newID()
	root := tr.start("round", 0, req)
	defer root.end()
	t0 := time.Now()
	for _, sets := range [][][]string{in.sc, in.pair} {
		sp := tr.child("db.execute", root.id(), req)
		_, rep, err := db.Execute(tableName, sets, o)
		sp.end()
		if err != nil {
			return rs, fmt.Errorf("execute: %w", err)
		}
		rs.add(rep)
		if wantSums {
			sums, err := fingerprints(t, rep, sets)
			if err != nil {
				return rs, err
			}
			rs.sums = append(rs.sums, sums...)
		}
	}
	sp := tr.child("db.query_with", root.id(), req)
	q0 := time.Now()
	res, err := db.QueryWith(in.contStmt, o)
	qwall := time.Since(q0)
	sp.end()
	if err != nil {
		return rs, fmt.Errorf("query_with: %w", err)
	}
	rs.wall = time.Since(t0)
	rs.add(res.Report)
	rs.contSearch = res.Search
	rs.sqlOverhead = qwall - res.Report.Wall - res.Search.Elapsed
	if wantSums {
		rs.sums = append(rs.sums, cache.ChecksumTable(res.Table))
	}
	return rs, nil
}

// fingerprints checksums an Execute report's result tables in the order the
// sets were asked.
func fingerprints(t *gbmqo.Table, rep *gbmqo.ExecReport, sets [][]string) ([]uint64, error) {
	sums := make([]uint64, 0, len(sets))
	for _, cols := range sets {
		ords := make([]int, len(cols))
		for i, c := range cols {
			ords[i] = t.ColIndex(c)
		}
		res := rep.Results[gbmqo.Cols(ords...)]
		if res == nil {
			return nil, fmt.Errorf("execute: no result for %v", cols)
		}
		sums = append(sums, cache.ChecksumTable(res))
	}
	return sums, nil
}

// oracleRound recomputes a round the trivially correct way — Naive strategy,
// sequential, unsharded, uncached, on a DB of its own — and returns its
// fingerprints and the rows it scanned.
func oracleRound(t *gbmqo.Table, in batchInputs) (roundStats, error) {
	db := gbmqo.Open(nil)
	db.Register(t)
	return runRound(db, t, in, gbmqo.QueryOptions{Strategy: gbmqo.Naive, NoCache: true}, nil, true)
}

// checkSums counts a round whose fingerprints differ from the oracle's as a
// failed operation.
func checkSums(o *outcome, what string, got, want []uint64) {
	if len(got) != len(want) {
		o.fail("%s: %d result tables, oracle has %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			o.fail("%s: result table %d differs from the naive recompute", what, i)
			return
		}
	}
}

// roundSeries collects the per-round samples the per-layer metrics are
// medians of, and round 1's exact counts.
type roundSeries struct {
	exec, search, sqlOver, merge []float64
	allocs, allocMB              []float64
	first                        *roundStats
	searchFirst                  gbmqo.SearchStats
}

// planSearch asks the optimizer alone for the two Execute batches (Execute
// returns no SearchStats) and adds the statement's own search: the round's
// optimizer effort. Statistics are warm by then, so Elapsed is search only.
func planSearch(db *gbmqo.DB, in batchInputs, o gbmqo.QueryOptions, cont gbmqo.SearchStats, tr *tracer) (gbmqo.SearchStats, error) {
	total := cont
	req := tr.newID()
	for _, sets := range [][][]string{in.sc, in.pair} {
		sp := tr.start("db.optimize", 0, req)
		_, st, err := db.Optimize(tableName, sets, o)
		sp.end()
		if err != nil {
			return total, fmt.Errorf("optimize: %w", err)
		}
		total.OptimizerCalls += st.OptimizerCalls
		total.MergeEvaluations += st.MergeEvaluations
		total.PrunedPairs += st.PrunedPairs
		total.Elapsed += st.Elapsed
		total.NaiveCost += st.NaiveCost
		total.FinalCost += st.FinalCost
	}
	return total, nil
}

// measuredRound runs one round. When series is given (the op of a traced
// run) it also records the round's heap allocations and, afterwards, the
// optimizer's effort for the same batches.
func measuredRound(db *gbmqo.DB, t *gbmqo.Table, in batchInputs, qo gbmqo.QueryOptions, tr *tracer, wantSums bool, series *roundSeries) (rs roundStats, err error) {
	if series == nil {
		return runRound(db, t, in, qo, tr, wantSums)
	}
	allocs, mb := memDelta(func() { rs, err = runRound(db, t, in, qo, tr, wantSums) })
	if err != nil {
		return rs, err
	}
	search, err := planSearch(db, in, qo, rs.contSearch, tr)
	if err != nil {
		return rs, err
	}
	series.allocs, series.allocMB = append(series.allocs, allocs), append(series.allocMB, mb)
	series.add(rs, search)
	return rs, nil
}

func (s *roundSeries) add(rs roundStats, search gbmqo.SearchStats) {
	if s.first == nil {
		s.first, s.searchFirst = &rs, search
	}
	s.exec = append(s.exec, ms(rs.execWall))
	s.search = append(s.search, ms(search.Elapsed))
	s.sqlOver = append(s.sqlOver, ms(rs.sqlOverhead))
	s.merge = append(s.merge, ms(rs.mergeTime))
}

// report writes the core, sql and engine metrics of a batch workload.
func (s *roundSeries) report(l *ledger, naiveRows int64) {
	if s == nil || s.first == nil {
		return
	}
	l.setN("core.search_ms_p50", median(s.search), len(s.search))
	l.set("core.optimizer_calls", float64(s.searchFirst.OptimizerCalls))
	l.set("core.merge_evals", float64(s.searchFirst.MergeEvaluations))
	l.set("core.pruned_pairs", float64(s.searchFirst.PrunedPairs))
	if s.searchFirst.NaiveCost > 0 {
		l.set("core.plan_cost_ratio", s.searchFirst.FinalCost/s.searchFirst.NaiveCost)
	}
	l.setN("sql.overhead_ms_p50", median(s.sqlOver), len(s.sqlOver))
	l.setN("engine.exec_ms_p50", median(s.exec), len(s.exec))
	l.setN("engine.merge_ms_p50", median(s.merge), len(s.merge))
	l.set("engine.rows_scanned", float64(s.first.rowsScanned))
	l.set("engine.temp_tables", float64(s.first.tempTables))
	if s.first.rowsScanned > 0 {
		l.set("engine.work_ratio", float64(naiveRows)/float64(s.first.rowsScanned))
	}
	l.set("engine.peak_mem_mb", float64(s.first.peakMem)/(1<<20))
	for _, k := range []string{"hash", "dense", "radix", "sort", "index"} {
		l.set("engine.kernel_ops."+k, float64(s.first.kernels[k]))
	}
	if len(s.allocs) > 0 {
		l.setN("engine.allocs_per_round", median(s.allocs), len(s.allocs))
		l.setN("engine.alloc_mb_per_round", median(s.allocMB), len(s.allocMB))
	}
}

// opSamples holds a phase's latency samples, split by whether the span
// recorder was on while the operation ran.
type opSamples struct{ plain, traced []time.Duration }

func (s *opSamples) add(d time.Duration, traced bool) {
	if traced {
		s.traced = append(s.traced, d)
	} else {
		s.plain = append(s.plain, d)
	}
}

func (s *opSamples) all() []time.Duration {
	return append(append([]time.Duration(nil), s.plain...), s.traced...)
}

// overheadPct is the traced median's excess over the untraced median.
func (s *opSamples) overheadPct() float64 {
	if len(s.plain) == 0 || len(s.traced) == 0 {
		return 0
	}
	p := median(msSamples(s.plain))
	return (median(msSamples(s.traced)) - p) / p * 100
}

// opMetrics writes op_ms_p50, ops_per_s and the traced run's
// loadgen.op_ms_p90 from a phase's samples; busy is the time the clients
// spent producing them.
func opMetrics(o *outcome, samples []time.Duration, busy time.Duration) error {
	v := msSamples(samples)
	p50, err := percentile(v, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(v, 0.9)
	if err != nil {
		return err
	}
	o.Ledger.setN("op_ms_p50", p50, len(v))
	o.Ledger.setN("loadgen.op_ms_p90", p90, len(v))
	o.Ledger.setN("ops_per_s", float64(len(v))/busy.Seconds(), len(v))
	return nil
}

func altMetric(o *outcome, samples []time.Duration) error {
	p50, err := percentile(msSamples(samples), 0.5)
	if err != nil {
		return fmt.Errorf("alt: %w", err)
	}
	o.Ledger.setN("alt_ms_p50", p50, len(samples))
	return nil
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// timeSetups runs a workload's set-up c.setups times, tearing each down
// except the last, whose product the workload then uses. setup_s is the
// median: one set-up is too short a measurement to compare across commits.
func timeSetups[T any](c config, o *outcome, tr *tracer, build func() (T, error), teardown func(T)) (T, error) {
	var last T
	walls := make([]float64, c.setups)
	defer tr.setOn(false)
	for i := range walls {
		tr.setOn(true) // a traced run records every set-up's spans
		t0 := time.Now()
		env, err := build()
		if err != nil {
			return last, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		walls[i] = time.Since(t0).Seconds()
		if i < len(walls)-1 {
			if teardown != nil {
				teardown(env)
			}
			runtime.GC()
		}
		last = env
	}
	o.Ledger.setN("setup_s", median(walls), len(walls))
	resetPeakRSS()
	return last, nil
}

func newOutcome(c config) *outcome {
	return &outcome{Ledger: newLedger(), Prov: newProvenance(c)}
}

func genTable(c config) (*gbmqo.Table, error) {
	return gbmqo.GenerateDataset(datasetKind, c.rows, datasetSeed, 0)
}

// memDelta measures a call's heap allocations (traced runs only: reading
// MemStats stops the world).
func memDelta(fn func()) (allocs, mb float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// openAndRegister is what every cold round starts with: a fresh DB holding
// the table.
func openAndRegister(t *gbmqo.Table, tr *tracer) *gbmqo.DB {
	req := tr.newID()
	sp := tr.start("db.open", 0, req)
	db := gbmqo.Open(nil)
	sp.end()
	sp = tr.start("db.register", 0, req)
	db.Register(t)
	sp.end()
	return db
}

// runBatchCold is the paper's scenario: every round opens a fresh DB, so
// statistics sampling, the optimizer search, plan execution and result
// emission are all paid per round; cache, scheduler, server, shards and WAL
// do nothing. Its alt operation is the same round asked again on the same DB
// (statistics warm): op minus alt is what being cold costs.
func runBatchCold(c config, tr *tracer) (*outcome, error) {
	o := newOutcome(c)
	o.Prov.WarmUp = "none: every round starts cold"
	in := newBatchInputs(c.seed)
	t, err := timeSetups(c, o, tr, func() (*gbmqo.Table, error) {
		t, err := genTable(c)
		if err != nil {
			return nil, err
		}
		openAndRegister(t, tr)
		return t, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	want, err := oracleRound(t, in)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	var op, alt opSamples
	var series *roundSeries // collected in a traced run only
	if c.trace {
		series = &roundSeries{}
	}
	var naive []time.Duration
	deadline := time.Now().Add(c.window(1))
	for i := 0; i < c.minOps || time.Now().Before(deadline); i++ {
		tr.setOn(c.trace && i%2 == 1)
		traced := tr.enabled()
		db := openAndRegister(t, tr)
		o.Attempted++
		rs, err := measuredRound(db, t, in, gbmqo.QueryOptions{}, tr, i == 0, series)
		if err != nil {
			o.fail("round %d: %v", i+1, err)
			continue
		}
		if i == 0 {
			checkSums(o, "round 1", rs.sums, want.sums)
		}
		op.add(rs.wall, traced)
		if i%4 == 3 {
			o.Attempted++
			again, err := runRound(db, t, in, gbmqo.QueryOptions{}, tr, false)
			if err != nil {
				o.fail("warm round %d: %v", i+1, err)
			} else {
				alt.add(again.wall, traced)
			}
		}
		// Every 5th round of a traced run, a Naive round on a fresh DB of its
		// own: the wall-clock twin of engine.work_ratio, interleaved so the
		// host's drift cancels in the ratio.
		if c.trace && i%5 == 4 {
			ndb := gbmqo.Open(nil)
			ndb.Register(t)
			nrs, err := runRound(ndb, t, in, gbmqo.QueryOptions{Strategy: gbmqo.Naive}, nil, false)
			if err != nil {
				return nil, fmt.Errorf("naive round: %w", err)
			}
			naive = append(naive, nrs.wall)
		}
	}
	tr.setOn(false)
	if err := opMetrics(o, op.all(), sum(op.plain)+sum(op.traced)); err != nil {
		return nil, err
	}
	if err := altMetric(o, alt.all()); err != nil {
		return nil, err
	}
	if !c.trace {
		return o, nil
	}

	l := o.Ledger
	series.report(l, want.rowsScanned)
	l.set("loadgen.trace_overhead_pct", op.overheadPct())
	l.set("loadgen.schedule_fnv", scheduleFNV(c.seed, in, 0, nil))
	l.setN("engine.wall_speedup_vs_naive", median(msSamples(naive))/l.vals["op_ms_p50"], len(naive))
	if err := probeDatagen(c, l); err != nil {
		return nil, err
	}
	if err := probeStats(t, in, l); err != nil {
		return nil, err
	}
	probeSQL(in, l)
	probeExec(t, l)
	return o, nil
}

// runBatchMulticore runs the same three batches on the two multi-core paths:
// a warm DB with morsel-parallel operators and concurrent sub-plans (op),
// then a second DB split into two shards with sequential operators (alt).
// Statistics are warm, so a statistics change must not move this workload.
func runBatchMulticore(c config, tr *tracer) (*outcome, error) {
	o := newOutcome(c)
	o.Prov.WarmUp = "one round per DB inside set-up (statistics cached)"
	o.Prov.Shards = shards
	in := newBatchInputs(c.seed)
	par := gbmqo.QueryOptions{Parallel: true, Parallelism: -1}
	seq := gbmqo.QueryOptions{}
	type env struct {
		t           *gbmqo.Table
		par, shard  *gbmqo.DB
		partitionMs float64
	}
	e, err := timeSetups(c, o, tr, func() (env, error) {
		req := tr.newID()
		t, err := genTable(c)
		if err != nil {
			return env{}, err
		}
		e := env{t: t, par: gbmqo.Open(nil), shard: gbmqo.Open(nil)}
		e.par.Register(t)
		e.shard.Register(t)
		sp := tr.start("db.enable_sharding", 0, req)
		p0 := time.Now()
		err = e.shard.EnableSharding(gbmqo.ShardOptions{Shards: shards})
		e.partitionMs = ms(time.Since(p0))
		sp.end()
		if err != nil {
			return env{}, fmt.Errorf("enable sharding: %w", err)
		}
		if _, err := runRound(e.par, t, in, par, nil, false); err != nil {
			return env{}, fmt.Errorf("warm-up round: %w", err)
		}
		if _, err := runRound(e.shard, t, in, seq, nil, false); err != nil {
			return env{}, fmt.Errorf("sharded warm-up round: %w", err)
		}
		return e, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	want, err := oracleRound(e.t, in)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	// phase runs rounds on db until its share of the time is up and at
	// least floor rounds are in.
	phase := func(what string, db *gbmqo.DB, qo gbmqo.QueryOptions, share float64, floor int, series *roundSeries) (opSamples, *roundStats) {
		var s opSamples
		var first *roundStats
		deadline := time.Now().Add(c.window(share))
		for i := 0; i < floor || time.Now().Before(deadline); i++ {
			tr.setOn(c.trace && i%2 == 1)
			traced := tr.enabled()
			o.Attempted++
			rs, err := measuredRound(db, e.t, in, qo, tr, i == 0, series)
			if err != nil {
				o.fail("%s round %d: %v", what, i+1, err)
				continue
			}
			if i == 0 {
				checkSums(o, what+" round 1", rs.sums, want.sums)
				first = &rs
			}
			s.add(rs.wall, traced)
		}
		tr.setOn(false)
		return s, first
	}
	var series *roundSeries // collected in a traced run only
	if c.trace {
		series = &roundSeries{}
	}
	op, _ := phase("parallel", e.par, par, 0.5, c.minOps, series)
	alt, shardFirst := phase("sharded", e.shard, seq, 0.5, c.minAlt, nil)
	if err := opMetrics(o, op.all(), sum(op.plain)+sum(op.traced)); err != nil {
		return nil, err
	}
	if err := altMetric(o, alt.all()); err != nil {
		return nil, err
	}
	if shardFirst != nil && shardFirst.shardsTotal != shards {
		o.fail("sharded round ran on %d shards, want %d", shardFirst.shardsTotal, shards)
	}
	if !c.trace {
		return o, nil
	}

	l := o.Ledger
	series.report(l, want.rowsScanned)
	l.set("loadgen.trace_overhead_pct", op.overheadPct())
	l.set("loadgen.schedule_fnv", scheduleFNV(c.seed, in, 0, nil))
	l.set("shard.partition_ms", e.partitionMs)
	if shardFirst != nil {
		l.set("shard.rows_scanned", float64(shardFirst.rowsScanned))
		l.set("shard.retries", float64(shardFirst.retries))
		l.set("shard.hedges_fired", float64(shardFirst.hedges))
	}
	// Twenty unsharded sequential rounds on the warm DB: what the sharded
	// rounds are compared with.
	var plain []time.Duration
	for i := 0; i < 20; i++ {
		rs, err := runRound(e.par, e.t, in, seq, nil, false)
		if err != nil {
			return nil, fmt.Errorf("unsharded round: %w", err)
		}
		plain = append(plain, rs.wall)
	}
	l.setN("shard.overhead_ratio", l.vals["alt_ms_p50"]/median(msSamples(plain)), len(plain))
	if err := probeDatagen(c, l); err != nil {
		return nil, err
	}
	probeExec(e.t, l)
	return o, nil
}
