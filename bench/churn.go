package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gbmqo"
)

// paceWriter calls do(i) for i = 0, 1, ... on the fixed schedule
// start + i*every until done(i) says stop: open loop, never early, back to
// back when behind. Each latency runs from the instant the call was due, so a
// stall shows in the calls it delayed; maxLate is how late the generator
// itself ever started a call.
func paceWriter(start time.Time, every time.Duration, done func(i int) bool, do func(i int) error) (lat []time.Duration, maxLate time.Duration, errs []error) {
	for i := 0; !done(i); i++ {
		due := start.Add(time.Duration(i) * every)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		maxLate = max(maxLate, time.Since(due))
		if err := do(i); err != nil {
			errs = append(errs, err)
			continue
		}
		lat = append(lat, time.Since(due))
	}
	return lat, maxLate, errs
}

// runServeChurn serves writes beside reads: a durable DB (fsync=always,
// background snapshots), a lattice larger than the cache, the same two page
// clients, and one writer appending 256 rows every 100 ms on a fixed
// schedule. Every append moves the epoch, so cache maintenance, delta
// aggregation, WAL and snapshots all work while readers contend with the
// writer. Its alt operation is the durable append, timed from when it was
// due. When load stops the data dir is copied, before Close, and recovered.
func runServeChurn(c config, tr *tracer) (*outcome, error) {
	o := newOutcome(c)
	o.Prov.Fsync = fsyncPolicy
	spec := serveSpec{dims: 9, cacheBytes: 2 << 20, durable: true}
	e, err := serveSetup(c, o, spec, tr)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	writer := appendStream(e.base, c.seed)

	before := e.counters()
	tr.setOn(true)
	var reports []*gbmqo.AppendReport
	var appendLat []time.Duration
	var maxLate time.Duration
	var appendErrs []error
	written := make(chan struct{})
	var readersDone atomic.Bool
	// The writer keeps its schedule for as long as the page clients run.
	stopWriter := func(i int) bool { return readersDone.Load() && i >= c.minAlt }
	go func() {
		defer close(written)
		appendLat, maxLate, appendErrs = paceWriter(time.Now(), appendEvery, stopWriter, func(i int) error {
			rows := writer.AppendBatch(i, appendRows)
			e.rowsSent.Add(int64(len(rows)))
			sp := tr.start("db.append", 0, tr.newID())
			rep, err := e.db.Append(tableName, rows)
			sp.end()
			if err != nil {
				e.rowsSent.Add(-int64(len(rows)))
				return err
			}
			e.rowsAcked.Add(int64(len(rows)))
			reports = append(reports, rep)
			return nil
		})
	}()
	pages, elapsed := e.runClients(c.seed, c.window(1), c.minPages, func(cl *pageClient, page []int) { _ = e.httpPage(cl, page) })
	readersDone.Store(true)
	<-written
	tr.setOn(false)
	copyDir := e.dataDir + "-copy"
	defer os.RemoveAll(copyDir)
	diskBytes, err := e.copyDataDir(copyDir)
	if err != nil {
		return nil, err
	}
	after := e.counters()

	o.Attempted += len(appendLat) + len(appendErrs)
	for _, err := range appendErrs {
		o.fail("append: %v", err)
	}
	if err := e.finish(o, pages, nil, elapsed); err != nil {
		return nil, err
	}
	if err := altMetric(o, appendLat); err != nil {
		return nil, err
	}
	rec, err := e.recoverCopy(c, o, copyDir)
	if err != nil {
		return nil, err
	}
	if !c.trace {
		return o, nil
	}

	l := o.Ledger
	e.layerMetrics(l, before, after, pages)
	appendMs := msSamples(appendLat)
	if p90, err := percentile(appendMs, 0.9); err == nil {
		l.setN("durable.append_ms_p90", p90, len(appendMs))
	}
	l.set("loadgen.append_lateness_ms_max", ms(maxLate))
	l.set("loadgen.schedule_fnv", scheduleFNV(c.seed, batchInputs{}, len(e.queries), writer))
	var maintain []float64
	var refreshed, dropped, invalidated int
	for _, r := range reports {
		maintain = append(maintain, ms(r.RefreshWall))
		refreshed += r.Refreshed
		dropped += r.Dropped
		invalidated += r.Invalidated
	}
	if n := float64(len(reports)); n > 0 {
		l.setN("engine.maintain_ms_p50", median(maintain), len(maintain))
		l.set("engine.refreshed_per_append", float64(refreshed)/n)
		l.set("engine.dropped_per_append", float64(dropped)/n)
		l.set("engine.invalidated_per_append", float64(invalidated)/n)
		l.set("wal.fsyncs_per_append", (after.metrics["gbmqo_wal_fsyncs_total"]-before.metrics["gbmqo_wal_fsyncs_total"])/n)
	}
	l.set("wal.segments", after.metrics["gbmqo_wal_segments"])
	l.set("snapshot.writes", after.metrics["gbmqo_snapshot_writes_total"]-before.metrics["gbmqo_snapshot_writes_total"])
	l.set("snapshot.errors", after.metrics["gbmqo_snapshot_errors_total"])
	l.set("durable.recover_s", rec.wall.Seconds())
	if rec.report != nil {
		l.set("durable.replayed_records", float64(rec.report.ReplayedRecords))
		l.set("durable.rewarmed_entries", float64(rec.report.RewarmedEntries))
		l.set("durable.truncated_tails", float64(rec.report.TruncatedTails))
	}
	l.set("durable.disk_bytes_per_row", float64(diskBytes)/float64(e.rowsAcked.Load()))

	if err := probeDatagen(c, l); err != nil {
		return nil, err
	}
	probeDir := filepath.Join(c.outDir, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(probeDir)
	batches := func(i int) [][]gbmqo.Value { return writer.AppendBatch(i, appendRows) }
	if err := probeWAL(probeDir, batches, l); err != nil {
		return nil, err
	}
	if err := probeSnapshot(probeDir, e.base, l); err != nil {
		return nil, err
	}
	probeTableAppend(e.base, batches, l)
	return o, nil
}

// recovery is what recovering the copied data dir showed.
type recovery struct {
	wall   time.Duration
	report *gbmqo.RecoveryReport
}

// copyDataDir copies the data dir while the DB is still open, right after
// load stops, so the copy ends in WAL records no snapshot covers yet and
// recovery has to replay them. It returns the bytes copied.
func (e *serveEnv) copyDataDir(dst string) (int64, error) {
	// A background snapshot finishing mid-copy can prune WAL the copy still
	// needs; copy again until none did.
	for try := 0; ; try++ {
		snaps := e.db.Metrics()["gbmqo_snapshot_writes_total"]
		if err := os.RemoveAll(dst); err != nil {
			return 0, err
		}
		n, err := copyTree(e.dataDir, dst)
		if err != nil {
			return 0, fmt.Errorf("copy data dir: %w", err)
		}
		if e.db.Metrics()["gbmqo_snapshot_writes_total"] == snaps {
			return n, nil
		}
		if try == 5 {
			return 0, errors.New("copy data dir: snapshots kept landing mid-copy")
		}
	}
}

// recoverCopy opens the copied data dir and checks that it holds every
// registered and acknowledged row and answers SC-12 exactly as the live DB
// does.
func (e *serveEnv) recoverCopy(c config, o *outcome, copyDir string) (recovery, error) {
	var rec recovery
	in := newBatchInputs(c.seed)
	sums := func(db *gbmqo.DB) ([]uint64, error) {
		t, _ := db.Table(tableName)
		_, rep, err := db.Execute(tableName, in.sc, gbmqo.QueryOptions{NoCache: true})
		if err != nil {
			return nil, err
		}
		return fingerprints(t, rep, in.sc)
	}
	o.Attempted++
	live, err := sums(e.db)
	if err != nil {
		return rec, fmt.Errorf("SC-12 before recovery: %w", err)
	}
	opts := e.spec.durability(c)
	opts.SnapshotInterval = -1
	e.tr.setOn(true)
	t0 := time.Now()
	sp := e.tr.start("db.open_durable", 0, e.tr.newID())
	db, report, err := gbmqo.OpenDurable(copyDir, e.cfg, opts)
	sp.end()
	rec.wall = time.Since(t0)
	e.tr.setOn(false)
	if err != nil {
		o.fail("recovery: %v", err)
		return rec, nil
	}
	defer db.Close(context.Background())
	rec.report = report
	t, ok := db.Table(tableName)
	if !ok {
		o.fail("recovered DB has no table %s", tableName)
		return rec, nil
	}
	if got, want := int64(t.NumRows()), e.rowsAcked.Load(); got != want {
		o.fail("recovered table holds %d rows, want registered + acknowledged = %d", got, want)
		return rec, nil
	}
	if report.TruncatedTails != 0 {
		o.fail("recovery truncated %d WAL tails of a cleanly written log", report.TruncatedTails)
	}
	recovered, err := sums(db)
	if err != nil {
		o.fail("SC-12 after recovery: %v", err)
		return rec, nil
	}
	checkSums(o, "SC-12 after recovery", recovered, live)
	return rec, nil
}

// copyTree copies the regular files under src to dst and returns the bytes
// copied. A file that vanishes between listing and copying (a pruned WAL
// segment, a renamed temporary) is skipped: recovery never needed it.
func copyTree(src, dst string) (int64, error) {
	var total int64
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += int64(len(b))
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	return total, err
}
