package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gbmqo"
	"gbmqo/internal/cache"
	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/sched"
	"gbmqo/internal/snapshot"
	"gbmqo/internal/sql"
	"gbmqo/internal/table"
	"gbmqo/internal/wal"
)

// The probes call one layer's public functions in isolation, on inputs taken
// from the workload, after the measured window of a traced run. They give the
// layer numbers no report carries; each runs only in the workloads that use
// its layer.

const probeReps = 7

func probeDatagen(c config, l *ledger) error {
	t0 := time.Now()
	if _, err := genTable(c); err != nil {
		return err
	}
	l.set("datagen.gen_s", time.Since(t0).Seconds())
	return nil
}

// probeStats measures what cold statistics cost the three batches: on a
// fresh DB the first Optimize samples the table, the second finds the
// statistics cached, and the difference is the sampling.
func probeStats(t *gbmqo.Table, in batchInputs, l *ledger) error {
	var cold []float64
	for rep := 0; rep < probeReps; rep++ {
		db := gbmqo.Open(nil)
		db.Register(t)
		var first, second time.Duration
		for _, sets := range [][][]string{in.sc, in.pair, in.cont} {
			for pass, dst := range []*time.Duration{&first, &second} {
				t0 := time.Now()
				if _, _, err := db.Optimize(tableName, sets, gbmqo.QueryOptions{}); err != nil {
					return fmt.Errorf("stats probe, pass %d: %w", pass+1, err)
				}
				*dst += time.Since(t0)
			}
		}
		cold = append(cold, ms(first-second))
	}
	l.setN("stats.cold_ms_p50", median(cold), len(cold))
	return nil
}

func probeSQL(in batchInputs, l *ledger) {
	d := timeReps(200, func() {
		if _, err := sql.Parse(in.contStmt); err != nil {
			panic(err) // the statement already ran through QueryWith
		}
	})
	v := make([]float64, len(d))
	for i := range d {
		v[i] = us(d[i])
	}
	l.setN("sql.parse_us_p50", median(v), len(v))
}

// nsPerRow is the median wall of reps runs of fn, per input row.
func nsPerRow(rows int, fn func()) float64 {
	d := timeReps(probeReps, fn)
	v := make([]float64, len(d))
	for i := range d {
		v[i] = float64(d[i]) / float64(rows)
	}
	return median(v)
}

// probeExec times the aggregation kernels on the base table at three group
// counts, the adaptive chooser at one and two workers (the pair in which
// parallel should never lose), emission, re-aggregation of a materialised
// intermediate, and a shared scan.
func probeExec(t *gbmqo.Table, l *ledger) {
	count := []exec.Agg{exec.CountStar()}
	rows := t.NumRows()
	var highGroups int
	for _, lv := range []struct{ level, col string }{{"low", "l_returnflag"}, {"mid", "l_shipdate"}, {"high", "l_comment"}} {
		ord := []int{t.ColIndex(lv.col)}
		ndv := float64(t.Col(ord[0]).DistinctCount())
		hash := nsPerRow(rows, func() { highGroups = exec.GroupByHash(t, ord, count, "probe").NumRows() })
		l.set("exec.hash_ns_per_row."+lv.level, hash)
		for _, w := range []int{1, 2} {
			v := nsPerRow(rows, func() {
				gov := exec.NewGov(context.Background(), nil)
				if _, _, err := exec.GroupByAdaptiveGov(gov, t, ord, count, "probe", exec.AdaptiveHints{NDV: ndv, Workers: w}); err != nil {
					panic(err) // no budget, no cancellation: cannot fail
				}
			})
			l.set(fmt.Sprintf("exec.adaptive_ns_per_row.%s.w%d", lv.level, w), v)
		}
		if lv.level == "high" {
			l.set("exec.emit_ns_per_group", hash*float64(rows)/float64(highGroups))
		}
	}
	dates := []int{t.ColIndex("l_shipdate"), t.ColIndex("l_commitdate"), t.ColIndex("l_receiptdate")}
	inter := exec.GroupByHash(t, dates, count, "probe_dates")
	rollup := []exec.Agg{count[0].Rollup(len(dates))}
	l.set("exec.reagg_ns_per_row", nsPerRow(inter.NumRows(), func() { exec.GroupByHash(inter, []int{0}, rollup, "probe") }))
	var siblings []exec.MultiQuery
	for _, c := range []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"} {
		siblings = append(siblings, exec.MultiQuery{GroupCols: []int{t.ColIndex(c)}, Aggs: count, OutName: "probe"})
	}
	l.set("exec.sharedscan_ns_per_row", nsPerRow(rows, func() {
		if _, err := exec.GroupByHashMulti(t, siblings); err != nil {
			panic(err)
		}
	}))
}

// probeCache fills a cache with the lattice's results and times an exact
// lookup, an ancestor search and an admission.
func probeCache(t *gbmqo.Table, queries []gbmqo.GroupQuery, maxBytes int64, l *ledger) error {
	db := gbmqo.Open(nil)
	db.Register(t)
	_, rep, err := db.ExecuteQueries(tableName, queries, gbmqo.QueryOptions{Strategy: gbmqo.Naive, NoCache: true})
	if err != nil {
		return fmt.Errorf("cache probe: %w", err)
	}
	count := []exec.Agg{exec.CountStar()}
	type entry struct {
		key cache.Key
		set colset.Set
		t   *table.Table
	}
	var entries []entry
	for set, res := range rep.Results {
		entries = append(entries, entry{cache.KeyOf(tableName, 1, 0, set, count), set, res})
	}
	c := cache.New(cache.Config{MaxBytes: maxBytes})
	var offer, get, anc []float64
	for _, e := range entries {
		t0 := time.Now()
		c.Offer(e.key, count, e.t, float64(t.NumRows()))
		offer = append(offer, us(time.Since(t0)))
	}
	for rep := 0; rep < 20; rep++ {
		for _, e := range entries {
			t0 := time.Now()
			c.Get(e.key)
			get = append(get, float64(time.Since(t0)))
			t0 = time.Now()
			c.Ancestors(tableName, 1, 0, e.set, count)
			anc = append(anc, us(time.Since(t0)))
		}
	}
	l.setN("cache.offer_us_p50", median(offer), len(offer))
	l.setN("cache.get_ns_p50", median(get), len(get))
	l.setN("cache.ancestors_us_p50", median(anc), len(anc))
	return nil
}

// probeSched submits lone requests to a Batcher whose RunFunc costs nothing:
// what remains is the idle-window floor every unbatched query pays.
func probeSched(l *ledger) error {
	set := colset.Of(0)
	tiny := table.New("probe", []table.ColumnDef{{Name: "k", Typ: table.TInt64}, {Name: "cnt", Typ: table.TInt64}})
	tiny.AppendRow(table.Int(1), table.Int(1))
	res := &engine.RunResult{Report: &engine.ExecReport{Results: map[colset.Set]*table.Table{set: tiny}}}
	b := sched.New(func(context.Context, string, []colset.Set, map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		return res, nil
	}, sched.Config{})
	defer b.Close()
	q := sched.Query{Table: tableName, Set: set, Aggs: []exec.Agg{exec.CountStar()}}
	var v []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, _, err := b.Submit(context.Background(), q); err != nil {
			return fmt.Errorf("sched probe: %w", err)
		}
		v = append(v, us(time.Since(t0)))
	}
	l.setN("sched.solo_overhead_us_p50", median(v), len(v))
	return nil
}

// probeWAL writes, syncs and replays 256-row records in a scratch directory.
func probeWAL(dir string, batches func(i int) [][]gbmqo.Value, l *ledger) error {
	const records = 100
	run := func(sub string, policy wal.Policy, each func(w *wal.Writer, i int) error) (wal.Stats, error) {
		w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, sub), Policy: policy})
		if err != nil {
			return wal.Stats{}, err
		}
		for i := 0; i < records; i++ {
			if err := each(w, i); err != nil {
				w.Close()
				return wal.Stats{}, err
			}
		}
		st := w.Stats()
		return st, w.Close()
	}
	var always, nosync, syncs []float64
	appendRec := func(w *wal.Writer, i int) (time.Duration, error) {
		rec := &wal.Record{Table: tableName, ExpectRows: (i + 1) * appendRows, Rows: batches(i)}
		t0 := time.Now()
		_, err := w.Append(rec)
		return time.Since(t0), err
	}
	st, err := run("always", wal.FsyncAlways, func(w *wal.Writer, i int) error {
		d, err := appendRec(w, i)
		always = append(always, us(d))
		return err
	})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if _, err := run("off", wal.FsyncOff, func(w *wal.Writer, i int) error {
		d, err := appendRec(w, i)
		nosync = append(nosync, us(d))
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = w.Sync()
		syncs = append(syncs, us(time.Since(t0)))
		return err
	}); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	t0 := time.Now()
	rs, err := wal.Replay(filepath.Join(dir, "always"), 0, func(*wal.Record) error { return nil })
	if err != nil || rs.Records != records {
		return fmt.Errorf("wal probe: replayed %d of %d records: %v", rs.Records, records, err)
	}
	l.set("wal.replay_ms_per_krec", ms(time.Since(t0))/records*1000)
	l.setN("wal.append_us_p50", median(always), len(always))
	l.setN("wal.append_nosync_us_p50", median(nosync), len(nosync))
	l.setN("wal.sync_us_p50", median(syncs), len(syncs))
	l.set("wal.bytes_per_row", float64(st.Bytes)/(records*appendRows))
	return nil
}

// probeSnapshot writes and loads a snapshot of the base table.
func probeSnapshot(dir string, t *gbmqo.Table, l *ledger) error {
	dir = filepath.Join(dir, "snap")
	s := &snapshot.Snapshot{WalSeq: 1, Tables: []snapshot.TableImage{snapshot.ImageOf(t, 1, 0)}}
	var write, load []float64
	var path string
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		p, err := snapshot.Write(dir, s)
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		write = append(write, ms(time.Since(t0)))
		path = p
		t0 = time.Now()
		if got, _, err := snapshot.Load(dir); err != nil || got == nil {
			return fmt.Errorf("snapshot probe: load: %v", err)
		}
		load = append(load, ms(time.Since(t0)))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	l.setN("snapshot.write_ms_p50", median(write), len(write))
	l.setN("snapshot.load_ms_p50", median(load), len(load))
	l.set("snapshot.bytes_per_row", float64(fi.Size())/float64(t.NumRows()))
	return nil
}

// probeTableAppend chains copy-on-write appends of 256 rows.
func probeTableAppend(t *gbmqo.Table, batches func(i int) [][]gbmqo.Value, l *ledger) {
	var v []float64
	for i := 0; i < 50; i++ {
		rows := batches(i)
		t0 := time.Now()
		t = t.Append(rows)
		v = append(v, us(time.Since(t0)))
	}
	l.setN("table.append_us_p50", median(v), len(v))
}
