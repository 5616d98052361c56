package gbmqo

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/catalog"
	"gbmqo/internal/codec"
	"gbmqo/internal/colset"
	"gbmqo/internal/snapshot"
	"gbmqo/internal/wal"
)

// This file is the crash-durability layer: an append-ahead log plus periodic
// table snapshots under a data directory, so a process death loses at most
// the unacknowledged append tail. Every acknowledged DB.Append is WAL-logged
// (CRC32C per record, fsync per policy) before it applies; a background loop
// snapshots every table's dictionary + column images at a pinned epoch,
// bounding how much WAL a restart must replay. OpenDurable recovers by
// restoring the newest valid snapshot, replaying the WAL suffix through the
// normal append/maintenance path (so incremental cache maintenance re-runs
// exactly as it did live), verifying row counts against per-record
// expectations and table fingerprints against the snapshot, and rewarming the
// result cache from a persisted manifest — recomputed entries must reproduce
// the checksums the pre-crash process stored, and a mismatch quarantines the
// key instead of serving it. See DESIGN.md "Crash durability".

const (
	walSubdir    = "wal"
	snapSubdir   = "snap"
	manifestFile = "cache-manifest.json"
)

// ErrDBClosed is returned by appends against a durably closed DB.
var ErrDBClosed = errors.New("gbmqo: DB is closed")

// FsyncPolicy names re-exported for CLI/flag plumbing.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncOff      = "off"
)

// DurabilityOptions tunes OpenDurable. The zero value selects fsync=always
// (acknowledged appends survive any crash) and 30s background snapshots.
type DurabilityOptions struct {
	// Fsync is the WAL sync policy: "always" (default), "interval", or "off".
	Fsync string
	// FsyncInterval is the background sync period under "interval"
	// (default 50ms).
	FsyncInterval time.Duration
	// SnapshotInterval is the background snapshot period (default 30s).
	// Negative disables background snapshots (registration and close still
	// snapshot synchronously).
	SnapshotInterval time.Duration
	// WALSegmentBytes rotates WAL segments at this size (default 4 MiB).
	WALSegmentBytes int64
}

// RecoveryReport describes what OpenDurable found and rebuilt.
type RecoveryReport struct {
	// SnapshotLoaded reports whether a snapshot was restored; SnapshotWalSeq
	// is the WAL horizon it covered and TablesRestored how many tables it held.
	SnapshotLoaded bool   `json:"snapshot_loaded"`
	SnapshotWalSeq uint64 `json:"snapshot_wal_seq"`
	TablesRestored int    `json:"tables_restored"`
	// SnapshotsDiscarded counts snapshot files dropped as corrupt or
	// unrestorable before one loaded (0 on a clean start).
	SnapshotsDiscarded int `json:"snapshots_discarded,omitempty"`
	// ReplayedRecords counts committed WAL appends re-applied; Aborted those
	// voided by abort markers; Skipped those that no longer applied (e.g. an
	// unknown table whose registration predates the snapshot).
	ReplayedRecords int `json:"replayed_records"`
	AbortedRecords  int `json:"aborted_records,omitempty"`
	SkippedRecords  int `json:"skipped_records,omitempty"`
	// TruncatedTails counts torn/corrupt WAL tails repaired by truncation.
	TruncatedTails int `json:"truncated_tails,omitempty"`
	// ManifestDiscarded reports a cache manifest dropped whole: unparseable,
	// failing its CRC, or written in an older checksum format (recovery then
	// starts with a cold cache).
	ManifestDiscarded bool `json:"manifest_discarded,omitempty"`
	// RewarmedEntries counts cache entries recomputed and checksum-verified;
	// RewarmSkipped those not attempted or not admitted; QuarantinedEntries
	// those whose recomputation contradicted the stored checksum.
	RewarmedEntries    int `json:"rewarmed_entries,omitempty"`
	RewarmSkipped      int `json:"rewarm_skipped,omitempty"`
	QuarantinedEntries int `json:"quarantined_entries,omitempty"`
	// Wall is the end-to-end recovery time.
	Wall time.Duration `json:"wall_ns"`
}

// durability is the per-DB durable state: the WAL writer, the snapshot loop,
// and the mutex that makes (WAL write → engine apply) atomic with respect to
// snapshots, registrations, and close.
type durability struct {
	dir  string
	opts DurabilityOptions

	// mu serializes durable appends, registrations, snapshot capture, and the
	// closed check: while held, the WAL horizon and every table's in-memory
	// state advance together.
	mu     sync.Mutex
	w      *wal.Writer
	closed bool

	// snapMu serializes whole snapshot writes (background loop vs Register vs
	// Close); it is always taken outside mu.
	snapMu sync.Mutex

	snapStop  chan struct{}
	snapDone  chan struct{}
	closeOnce sync.Once
	closeErr  error

	snapWrites   atomic.Uint64
	snapErrors   atomic.Uint64
	lastSnapUnix atomic.Int64

	recovery RecoveryReport
}

// OpenDurable opens (or creates) a durable DB rooted at dataDir: it recovers
// the newest valid snapshot, replays the WAL suffix past it, rewarms the
// result cache from the persisted manifest, and then starts logging new
// appends. The returned RecoveryReport says what was found; on a fresh
// directory it is all zeroes. dopts may be nil for defaults (fsync=always,
// 30s snapshots). Tables registered on a durable DB are snapshotted
// synchronously — registration is durable once Register returns.
func OpenDurable(dataDir string, cfg *Config, dopts *DurabilityOptions) (*DB, *RecoveryReport, error) {
	o := DurabilityOptions{}
	if dopts != nil {
		o = *dopts
	}
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	policy, err := wal.ParsePolicy(o.Fsync)
	if err != nil {
		return nil, nil, err
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 30 * time.Second
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, err
	}

	db := Open(cfg)
	rep := &RecoveryReport{}
	start := time.Now()

	// 1. Restore the newest snapshot whose every table rebuilds and verifies;
	// discard corrupt or unrestorable ones and fall back.
	snapDir := filepath.Join(dataDir, snapSubdir)
	for {
		s, path, err := snapshot.Load(snapDir)
		if err != nil {
			return nil, nil, fmt.Errorf("gbmqo: loading snapshot: %w", err)
		}
		if s == nil {
			break
		}
		if err := restoreSnapshot(db.eng.Catalog(), s); err != nil {
			// Fingerprint or rebuild failure: this snapshot cannot be
			// trusted. Drop it and try the previous one; with none left,
			// recovery degrades to replaying the whole WAL from scratch.
			os.Remove(path)
			rep.SnapshotsDiscarded++
			continue
		}
		rep.SnapshotLoaded = true
		rep.SnapshotWalSeq = s.WalSeq
		rep.TablesRestored = len(s.Tables)
		break
	}

	// 2. Replay the WAL suffix through the normal append path. Torn tails are
	// repaired on disk by the replay itself.
	walDir := filepath.Join(dataDir, walSubdir)
	if err := db.replayWAL(walDir, rep.SnapshotWalSeq, rep); err != nil {
		return nil, nil, err
	}

	// 3. Open the log for new appends (always a fresh segment past the
	// highest on-disk sequence, so the repaired tail is never appended into).
	w, err := wal.Open(wal.Options{
		Dir: walDir, SegmentBytes: o.WALSegmentBytes,
		Policy: policy, Interval: o.FsyncInterval,
	})
	if err != nil {
		return nil, nil, err
	}
	d := &durability{dir: dataDir, opts: o, w: w}
	db.dur = d

	// 4. Rewarm the result cache from the manifest, verifying every
	// recomputed entry against its stored checksum.
	db.rewarmCache(rep)

	// 5. If recovery replayed anything (or repaired a tail), snapshot now so
	// a crash loop cannot re-pay the same replay forever.
	if rep.ReplayedRecords > 0 || rep.TruncatedTails > 0 {
		if err := d.snapshotNow(db); err != nil {
			return nil, nil, fmt.Errorf("gbmqo: post-recovery snapshot: %w", err)
		}
	}

	if o.SnapshotInterval > 0 {
		d.snapStop = make(chan struct{})
		d.snapDone = make(chan struct{})
		go d.snapshotLoop(db)
	}

	rep.Wall = time.Since(start)
	d.recovery = *rep
	_ = db.obs.RegisterCollector(&durabilityCollector{db: db})
	return db, rep, nil
}

// restoreSnapshot rebuilds and registers every table image at its recorded
// epoch. All-or-nothing per snapshot: the first failure aborts (the catalog
// may hold some restored tables, but the caller retries with an older
// snapshot whose RestoreAt calls simply re-register them).
func restoreSnapshot(cat *catalog.Catalog, s *snapshot.Snapshot) error {
	for i := range s.Tables {
		img := &s.Tables[i]
		t, err := snapshot.Restore(img)
		if err != nil {
			return err
		}
		if err := cat.RestoreAt(t, catalog.Epoch{Version: img.Version, Delta: img.Delta}); err != nil {
			return err
		}
	}
	return nil
}

// replayWAL re-applies every committed WAL record past `after` through the
// engine's append path, behind a panic barrier (the recover.replay failpoint
// and any engine fault surface as an OpenDurable error, not a crash). Row
// counts are verified against each record's ExpectRows: a divergence means
// the recovered base state does not match what the original process
// acknowledged, and recovery fails loudly rather than serving it.
func (db *DB) replayWAL(dir string, after uint64, rep *RecoveryReport) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("gbmqo: recovery replay: %v", p)
		}
	}()
	st, rerr := wal.Replay(dir, after, func(r *wal.Record) error {
		arep, aerr := db.eng.Append(r.Table, r.Rows)
		if aerr != nil {
			// The record no longer applies — most commonly a table whose
			// registration predates the oldest surviving snapshot. Count and
			// continue: the rest of the log is still good.
			rep.SkippedRecords++
			return nil
		}
		if arep.TotalRows != r.ExpectRows {
			return fmt.Errorf("gbmqo: replay diverged: table %q has %d rows after seq %d, wal expects %d",
				r.Table, arep.TotalRows, r.Seq, r.ExpectRows)
		}
		rep.ReplayedRecords++
		return nil
	})
	rep.AbortedRecords = st.Aborted
	rep.TruncatedTails += st.TruncatedTails
	return rerr
}

// durableAppend is DB.Append's body when a WAL is attached: validate, log
// (fsync per policy), then apply. The WAL write is the acknowledgement point
// — under fsync=always an append that returned success survives any crash.
// An apply failure (or an injected fault between log and apply) writes an
// abort marker voiding the record, so replay reproduces exactly the
// acknowledged state.
func (db *DB) durableAppend(name string, rows [][]Value) (rep *AppendReport, err error) {
	d := db.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrDBClosed
	}
	if err := db.eng.ValidateAppend(name, rows); err != nil {
		return nil, err
	}
	t, _ := db.Table(name)
	rec := &wal.Record{Table: name, ExpectRows: t.NumRows() + len(rows), Rows: rows}
	defer func() {
		if p := recover(); p != nil {
			// An injected fault (wal.append / wal.fsync panic) mid-log: the
			// sequence is burned either way; void it so replay can never
			// resurrect a never-acknowledged append.
			if rec.Seq != 0 {
				d.abortQuiet(rec.Seq)
			}
			rep, err = nil, fmt.Errorf("gbmqo: durable append: %v", p)
		}
	}()
	if _, werr := d.w.Append(rec); werr != nil {
		return nil, werr
	}
	rep, err = db.eng.Append(name, rows)
	if err != nil {
		d.abortQuiet(rec.Seq)
		return nil, err
	}
	return rep, nil
}

// abortQuiet writes an abort marker, swallowing errors and panics: it runs on
// failure paths (including inside a recover handler) where a second fault
// must not mask the first.
func (d *durability) abortQuiet(seq uint64) {
	defer func() { _ = recover() }()
	_ = d.w.AppendAbort(seq)
}

// registerDurable registers t and synchronously snapshots: registrations are
// not WAL-logged (a register rewrites the whole table), so the snapshot IS
// their durability — a nil return means the new table is on disk. A non-nil
// return means the table is registered in memory but NOT durable: a crash
// before the next successful snapshot loses it (and replay skips its WAL
// appends as unknown-table).
func (db *DB) registerDurable(t *Table) error {
	d := db.dur
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrDBClosed
	}
	db.eng.Catalog().Register(t)
	d.mu.Unlock()
	if err := d.snapshotNow(db); err != nil {
		// snapshotNow already counted the failure in snapErrors.
		return fmt.Errorf("gbmqo: registration snapshot for %q: %w", t.Name(), err)
	}
	return nil
}

// snapshotNow captures every base table at a consistent WAL horizon and
// writes one snapshot file (atomic tmp + rename), then prunes WAL segments
// the new snapshot made redundant and persists the cache manifest. Capture
// runs under the append mutex — dictionary state is copied there — but
// encoding and I/O run outside it, so appends stall only for the copy.
func (d *durability) snapshotNow(db *DB) error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()

	// close() takes its final snapshot before marking closed, so a closed
	// observation here means some straggler (nothing left to persist).
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	cat := db.eng.Catalog()
	s := &snapshot.Snapshot{WalSeq: d.w.Stats().NextSeq - 1}
	for _, name := range cat.TableNames() {
		if strings.HasPrefix(name, "__") {
			continue // temp tables are derived state, never persisted
		}
		t, ep, ok := cat.TableEpoch(name)
		if !ok {
			continue
		}
		s.Tables = append(s.Tables, snapshot.ImageOf(t, ep.Version, ep.Delta))
	}
	manifest := db.eng.ResultCache().Manifest()
	d.mu.Unlock()

	if _, err := snapshot.Write(filepath.Join(d.dir, snapSubdir), s); err != nil {
		d.snapErrors.Add(1)
		return err
	}
	d.snapWrites.Add(1)
	d.lastSnapUnix.Store(time.Now().UnixNano())
	// Prune only WAL the OLDEST retained snapshot no longer needs: retention
	// keeps a fallback so recovery can discard a corrupt newest snapshot, and
	// the fallback is only usable while its replay suffix survives. Pruning to
	// the new snapshot's own horizon would leave a gap between the two.
	pruneTo := s.WalSeq
	if oldest, ok := snapshot.OldestRetainedWalSeq(filepath.Join(d.dir, snapSubdir)); ok && oldest < pruneTo {
		pruneTo = oldest
	}
	_, _ = d.w.RemoveObsolete(pruneTo)
	if err := writeManifest(filepath.Join(d.dir, manifestFile), manifest); err != nil {
		d.snapErrors.Add(1)
	}
	return nil
}

// snapshotLoop runs background snapshots until close. Each iteration is
// panic-isolated: an injected snapshot.write fault costs one snapshot, not
// the loop.
func (d *durability) snapshotLoop(db *DB) {
	defer close(d.snapDone)
	tick := time.NewTicker(d.opts.SnapshotInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.snapStop:
			return
		case <-tick.C:
			func() {
				defer func() {
					if p := recover(); p != nil {
						d.snapErrors.Add(1)
					}
				}()
				_ = d.snapshotNow(db)
			}()
		}
	}
}

// close shuts the durability layer down exactly once: stop the snapshot loop,
// take a final snapshot (so the next open replays nothing), mark closed so
// racing appends fail with ErrDBClosed, and sync-close the WAL. Concurrent
// and repeated calls all observe the first call's outcome.
func (d *durability) close(db *DB) error {
	d.closeOnce.Do(func() {
		if d.snapStop != nil {
			close(d.snapStop)
			<-d.snapDone
		}
		if err := d.snapshotNow(db); err != nil {
			d.closeErr = err
		}
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		if err := d.w.Close(); err != nil && d.closeErr == nil {
			d.closeErr = err
		}
	})
	return d.closeErr
}

// RecoveryInfo returns the report from this DB's OpenDurable recovery, or
// (zero, false) when the DB is not durable.
func (db *DB) RecoveryInfo() (RecoveryReport, bool) {
	if db.dur == nil {
		return RecoveryReport{}, false
	}
	return db.dur.recovery, true
}

// --- cache manifest ---------------------------------------------------------

// manifestEnvelope wraps the persisted entries with a CRC32C over their JSON
// encoding, so a corrupt manifest is detected and discarded as a unit instead
// of rewarming from garbage, and with the checksum format the entries' sums
// were computed in.
type manifestEnvelope struct {
	Format  int                   `json:"format"`
	CRC     string                `json:"crc"`
	Entries []cache.ManifestEntry `json:"entries"`
}

// manifestFormat is the checksum format of the manifests this build writes.
// Format 2 fingerprints hash measure column values (see cache.ChecksumTable);
// earlier manifests carry no format field and checksums no recomputation can
// reproduce. Rewarming one would quarantine — permanently bar — every key it
// names, so a manifest of any other format is discarded whole instead: a cold
// cache, not a poisoned one.
const manifestFormat = 2

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

func writeManifest(path string, entries []cache.ManifestEntry) error {
	if entries == nil {
		entries = []cache.ManifestEntry{}
	}
	body, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	env := manifestEnvelope{Format: manifestFormat, CRC: fmt.Sprintf("%08x", crc32.Checksum(body, manifestCRC)), Entries: entries}
	buf, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return codec.WriteFileAtomic(path, append(buf, '\n'))
}

// readManifest loads the manifest; ok is false (with no error) when the file
// is absent, unparseable, of another checksum format, or fails its CRC —
// rewarm is skipped, never fed garbage. discarded reports a file that exists
// but was dropped.
func readManifest(path string) (entries []cache.ManifestEntry, ok, discarded bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	var env manifestEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Format != manifestFormat {
		return nil, false, true
	}
	body, err := json.Marshal(env.Entries)
	if err != nil {
		return nil, false, true
	}
	if fmt.Sprintf("%08x", crc32.Checksum(body, manifestCRC)) != env.CRC {
		return nil, false, true
	}
	return env.Entries, true, false
}

// rewarmCache recomputes every manifest entry whose epoch matches the
// recovered catalog, through the normal engine path (admission, checksum, and
// lattice machinery run exactly as live), then verifies the admitted entry's
// checksum against the manifest. A mismatch means the recovered state cannot
// reproduce what the pre-crash process cached — the key is quarantined, never
// served.
func (db *DB) rewarmCache(rep *RecoveryReport) {
	c := db.eng.ResultCache()
	if c == nil {
		return
	}
	entries, ok, discarded := readManifest(filepath.Join(db.dur.dir, manifestFile))
	if !ok {
		rep.ManifestDiscarded = discarded
		return
	}
	for _, m := range entries {
		ep := db.eng.Catalog().Epoch(m.Table)
		if ep.Version != m.Version || ep.Delta != m.Delta {
			rep.RewarmSkipped++
			continue
		}
		key := m.CacheKey()
		// Re-grant the demand weight the entry had earned so admission sees
		// the same standing the pre-crash cache did.
		c.Seed(key, m.Uses)
		set := colset.Set(m.Set)
		req := QueryOptions{}.request() // default knobs: through the cache, exactly as a live query
		req.Table, req.Sets, req.PerSetAggs = m.Table, []colset.Set{set}, map[colset.Set][]Agg{set: m.Aggs}
		if _, err := db.eng.Run(req); err != nil {
			rep.RewarmSkipped++
			continue
		}
		sum, resident := c.SumOf(key)
		if !resident {
			rep.RewarmSkipped++
			continue
		}
		want, perr := strconv.ParseUint(m.Sum, 16, 64)
		if perr != nil || sum != want {
			c.ForceQuarantine(key)
			rep.QuarantinedEntries++
			continue
		}
		rep.RewarmedEntries++
	}
}
