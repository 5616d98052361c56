package gbmqo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gbmqo/internal/cache"
)

// durableDefs is the schema every durable test table uses: one low-cardinality
// group key per type plus a float measure, with periodic nulls.
var durableDefs = []ColumnDef{
	{Name: "k", Typ: Int64},
	{Name: "s", Typ: String},
	{Name: "f", Typ: Float64},
	{Name: "d", Typ: Date},
}

func durableRows(start, n int) [][]Value {
	rows := make([][]Value, 0, n)
	for i := start; i < start+n; i++ {
		row := []Value{
			IntVal(int64(i % 7)),
			StrVal("grp" + strconv.Itoa(i%5)),
			FloatVal(float64(i) * 0.5),
			DateVal(int64(9500 + i%30)),
		}
		if i%11 == 0 {
			row[1] = NullVal(String)
		}
		rows = append(rows, row)
	}
	return rows
}

// tableBytes fingerprints a table's full logical content: column names, the
// packed row-major code image and measure values (the cache's fingerprint).
// Byte-identical recovery means equal hashes.
func tableBytes(t *testing.T, tb *Table) uint64 {
	t.Helper()
	return cache.ChecksumTable(tb)
}

func openDurableEvents(t *testing.T, dir string, dopts *DurabilityOptions) (*DB, *RecoveryReport) {
	t.Helper()
	db, rep, err := OpenDurable(dir, nil, dopts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return db, rep
}

func mustClose(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()

	db, rep := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	if rep.SnapshotLoaded || rep.ReplayedRecords != 0 || rep.TablesRestored != 0 {
		t.Fatalf("fresh-dir recovery not empty: %+v", rep)
	}
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 500) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	for i := 0; i < 3; i++ {
		if _, err := db.Append("events", durableRows(500+i*100, 100)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	live, _ := db.Table("events")
	want := tableBytes(t, live)
	res, err := db.Query(`SELECT k, COUNT(*) FROM events GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	wantQuery := tableBytes(t, res)
	// A registered aggregate result is snapshotted and recovered like any
	// table (its measure column was re-interned on registration).
	_, er, err := db.Execute("events", [][]string{{"s"}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.Register(er.Results[Cols(1)].Rename("scounts"))
	liveCounts, _ := db.Table("scounts")
	wantCounts := tableBytes(t, liveCounts)
	const byCount = `SELECT cnt, COUNT(*) AS freq FROM scounts GROUP BY cnt`
	freq, err := db.Query(byCount)
	if err != nil {
		t.Fatal(err)
	}
	wantFreq := tableBytes(t, freq)
	mustClose(t, db)

	db2, rep2 := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer mustClose(t, db2)
	if !rep2.SnapshotLoaded || rep2.TablesRestored != 2 {
		t.Fatalf("recovery report: %+v", rep2)
	}
	if got, ok := db2.Table("scounts"); !ok || tableBytes(t, got) != wantCounts {
		t.Fatal("registered result not recovered byte-identical")
	}
	if freq2, err := db2.Query(byCount); err != nil || tableBytes(t, freq2) != wantFreq {
		t.Fatalf("GROUP BY cnt over the recovered result differs (err %v)", err)
	}
	// Close snapshots synchronously, so the WAL horizon is fully covered.
	if rep2.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records past a close-time snapshot", rep2.ReplayedRecords)
	}
	got, ok := db2.Table("events")
	if !ok || got.NumRows() != 800 {
		t.Fatalf("recovered table: ok=%v rows=%d", ok, got.NumRows())
	}
	if tableBytes(t, got) != want {
		t.Fatal("recovered table is not byte-identical")
	}
	res2, err := db2.Query(`SELECT k, COUNT(*) FROM events GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if tableBytes(t, res2) != wantQuery {
		t.Fatal("recovered query result is not byte-identical")
	}
}

// TestDurableReplayWithoutClose simulates a crash: the first process never
// closes, so recovery must replay every acknowledged append from the WAL on
// top of the registration-time snapshot.
func TestDurableReplayWithoutClose(t *testing.T) {
	dir := t.TempDir()

	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 200) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	for i := 0; i < 4; i++ {
		if _, err := db.Append("events", durableRows(200+i*50, 50)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	live, _ := db.Table("events")
	want := tableBytes(t, live)
	// No Close: the WAL tail past the registration snapshot is the only
	// durable copy of the four appends (fsync=always acknowledged them).

	db2, rep := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer mustClose(t, db2)
	if !rep.SnapshotLoaded {
		t.Fatalf("registration snapshot not found: %+v", rep)
	}
	if rep.ReplayedRecords != 4 {
		t.Fatalf("replayed %d records, want 4 (%+v)", rep.ReplayedRecords, rep)
	}
	got, ok := db2.Table("events")
	if !ok || got.NumRows() != 400 {
		t.Fatalf("recovered table: ok=%v rows=%d", ok, got.NumRows())
	}
	if tableBytes(t, got) != want {
		t.Fatal("replayed table is not byte-identical to the crashed process's view")
	}
	if info, ok := db2.RecoveryInfo(); !ok || info.ReplayedRecords != 4 {
		t.Fatalf("RecoveryInfo = %+v, %v", info, ok)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()

	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 100) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	if _, err := db.Append("events", durableRows(100, 50)); err != nil {
		t.Fatal(err)
	}
	live, _ := db.Table("events")
	want := tableBytes(t, live)
	// Crash mid-write: garbage half-frame at the tail of the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, walSubdir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00, 0xff, 0xab})
	f.Close()

	db2, rep := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer mustClose(t, db2)
	if rep.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1 (%+v)", rep.TruncatedTails, rep)
	}
	if rep.ReplayedRecords != 1 {
		t.Fatalf("ReplayedRecords = %d, want 1", rep.ReplayedRecords)
	}
	got, _ := db2.Table("events")
	if tableBytes(t, got) != want {
		t.Fatal("recovery after torn tail is not byte-identical")
	}
	// Appends must keep working on the repaired log.
	if _, err := db2.Append("events", durableRows(150, 10)); err != nil {
		t.Fatalf("append after torn-tail repair: %v", err)
	}
}

func TestDurableCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 50) {
		tb.AppendRow(row...)
	}
	db.Register(tb)

	for i := 0; i < 3; i++ {
		if err := db.Close(context.Background()); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := db.Append("events", durableRows(50, 10)); !errors.Is(err, ErrDBClosed) {
		t.Fatalf("Append after Close = %v, want ErrDBClosed", err)
	}
}

// TestDurableCloseConcurrentAppend races Close against in-flight appends
// (satellite fix): every append must either fully commit — and then survive
// recovery — or fail with ErrDBClosed. Nothing may tear or deadlock.
func TestDurableCloseConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 100) {
		tb.AppendRow(row...)
	}
	db.Register(tb)

	const (
		writers = 4
		batches = 8
		per     = 10
	)
	var (
		wg        sync.WaitGroup
		committed sync.Map // batch id -> true
	)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for b := 0; b < batches; b++ {
				id := w*batches + b
				_, err := db.Append("events", durableRows(100+id*per, per))
				switch {
				case err == nil:
					committed.Store(id, true)
				case errors.Is(err, ErrDBClosed):
					return
				default:
					t.Errorf("append %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let some appends land before closing
	if err := db.Close(context.Background()); err != nil {
		t.Fatalf("Close during appends: %v", err)
	}
	wg.Wait()

	n := 0
	committed.Range(func(_, _ any) bool { n++; return true })

	db2, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer mustClose(t, db2)
	got, ok := db2.Table("events")
	if !ok {
		t.Fatal("events missing after recovery")
	}
	if want := 100 + n*per; got.NumRows() != want {
		t.Fatalf("recovered %d rows, want %d (%d committed batches)", got.NumRows(), want, n)
	}
}

// TestPlainCloseIdempotent covers the non-durable path of the same fix:
// Close after Drain stays safe and repeatable with no data dir attached.
func TestPlainCloseIdempotent(t *testing.T) {
	db := Open(nil)
	db.StartBatching(BatchOptions{})
	if err := db.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Close(context.Background()); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

func durableCacheSetup(t *testing.T, dir string) (queriesHash uint64) {
	t.Helper()
	db, _, err := OpenDurable(dir, &Config{CacheBytes: 32 << 20}, &DurabilityOptions{SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 1500) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	queries := [][]string{{"k"}, {"s"}, {"k", "s"}}
	// Two runs: admit, then touch so entries carry demand weight.
	for i := 0; i < 2; i++ {
		if _, _, err := db.Execute("events", queries, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := db.CacheStats()
	if !ok || st.Entries == 0 {
		t.Fatalf("cache not populated: %+v, %v", st, ok)
	}
	mustClose(t, db)
	return 0
}

func TestDurableCacheRewarm(t *testing.T) {
	dir := t.TempDir()
	durableCacheSetup(t, dir)

	db, rep, err := OpenDurable(dir, &Config{CacheBytes: 32 << 20}, &DurabilityOptions{SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, db)
	if rep.RewarmedEntries == 0 {
		t.Fatalf("no cache entries rewarmed: %+v", rep)
	}
	if rep.QuarantinedEntries != 0 || rep.ManifestDiscarded {
		t.Fatalf("clean rewarm reported corruption: %+v", rep)
	}
	_, warm, err := db.Execute("events", [][]string{{"k"}, {"s"}, {"k", "s"}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 3 {
		t.Fatalf("rewarmed cache served %d of 3 hits: %+v", warm.Cache.Hits, warm.Cache)
	}
	if warm.RowsScanned != 0 {
		t.Fatalf("rewarmed run scanned %d rows", warm.RowsScanned)
	}
}

// TestDurableManifestEntryQuarantined tampers one manifest entry's checksum
// while keeping the file-level CRC valid: recovery must recompute, notice the
// contradiction, and push that key into the quarantine path instead of
// serving it.
func TestDurableManifestEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	durableCacheSetup(t, dir)

	path := filepath.Join(dir, manifestFile)
	entries, ok, corrupt := readManifest(path)
	if !ok || corrupt || len(entries) == 0 {
		t.Fatalf("manifest read: ok=%v corrupt=%v entries=%d", ok, corrupt, len(entries))
	}
	entries[0].Sum = "00000000deadbeef"
	if err := writeManifest(path, entries); err != nil {
		t.Fatal(err)
	}

	db, rep, err := OpenDurable(dir, &Config{CacheBytes: 32 << 20}, &DurabilityOptions{SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, db)
	if rep.QuarantinedEntries != 1 {
		t.Fatalf("QuarantinedEntries = %d, want 1 (%+v)", rep.QuarantinedEntries, rep)
	}
	if rep.ManifestDiscarded {
		t.Fatalf("entry-level corruption discarded the whole manifest: %+v", rep)
	}
	if rep.RewarmedEntries != len(entries)-1 {
		t.Fatalf("RewarmedEntries = %d, want %d", rep.RewarmedEntries, len(entries)-1)
	}
	st, _ := db.CacheStats()
	if st.Corruptions == 0 {
		t.Fatalf("quarantine not recorded in cache stats: %+v", st)
	}
}

// TestDurableManifestFileCorruption flips raw manifest bytes: the file-level
// CRC must reject the whole manifest, and recovery proceeds cold-cache.
func TestDurableManifestFileCorruption(t *testing.T) {
	dir := t.TempDir()
	durableCacheSetup(t, dir)

	path := filepath.Join(dir, manifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x5a
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, rep, err := OpenDurable(dir, &Config{CacheBytes: 32 << 20}, &DurabilityOptions{SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, db)
	if !rep.ManifestDiscarded {
		t.Fatalf("corrupt manifest not discarded: %+v", rep)
	}
	if rep.RewarmedEntries != 0 || rep.QuarantinedEntries != 0 {
		t.Fatalf("discarded manifest still rewarmed entries: %+v", rep)
	}
	// Table recovery is unaffected by a bad manifest.
	if tb, ok := db.Table("events"); !ok || tb.NumRows() != 1500 {
		t.Fatalf("table recovery failed alongside manifest discard")
	}
}

// TestDurableOldFormatManifestDiscarded opens a data directory whose
// manifest was written before checksums hashed aggregate values: no format
// field, and sums no recomputation reproduces. Rewarming it would quarantine
// every key for good; recovery must instead discard it whole, load the
// snapshot, and leave every key admissible.
func TestDurableOldFormatManifestDiscarded(t *testing.T) {
	dir := t.TempDir()
	durableCacheSetup(t, dir)

	path := filepath.Join(dir, manifestFile)
	entries, ok, _ := readManifest(path)
	if !ok || len(entries) == 0 {
		t.Fatalf("manifest read: ok=%v entries=%d", ok, len(entries))
	}
	for i := range entries {
		entries[i].Sum = "00000000deadbeef"
	}
	body, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(struct {
		CRC     string                `json:"crc"`
		Entries []cache.ManifestEntry `json:"entries"`
	}{fmt.Sprintf("%08x", crc32.Checksum(body, manifestCRC)), entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	db, rep, err := OpenDurable(dir, &Config{CacheBytes: 32 << 20}, &DurabilityOptions{SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, db)
	if !rep.SnapshotLoaded || rep.QuarantinedEntries != 0 || !rep.ManifestDiscarded || rep.RewarmedEntries != 0 {
		t.Fatalf("old-format manifest: %+v, want snapshot loaded, manifest discarded, nothing quarantined or rewarmed", rep)
	}
	queries := [][]string{{"k"}, {"s"}, {"k", "s"}}
	for i := 0; i < 2; i++ {
		if _, _, err := db.Execute("events", queries, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	_, warm, err := db.Execute("events", queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 3 {
		t.Fatalf("keys of the discarded manifest not re-admitted: %+v", warm.Cache)
	}
	if st, _ := db.CacheStats(); st.Corruptions != 0 {
		t.Fatalf("discarding the manifest counted corruptions: %+v", st)
	}
}

func TestDurableFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			db, _, err := OpenDurable(dir, nil, &DurabilityOptions{
				Fsync: policy, FsyncInterval: time.Millisecond, SnapshotInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			tb := NewTable("events", durableDefs)
			for _, row := range durableRows(0, 100) {
				tb.AppendRow(row...)
			}
			db.Register(tb)
			if _, err := db.Append("events", durableRows(100, 20)); err != nil {
				t.Fatal(err)
			}
			mustClose(t, db)

			db2, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
			defer mustClose(t, db2)
			if tb2, ok := db2.Table("events"); !ok || tb2.NumRows() != 120 {
				t.Fatalf("policy %s: recovery lost rows", policy)
			}
		})
	}
}

func TestDurableMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer mustClose(t, db)
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 50) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	if _, err := db.Append("events", durableRows(50, 10)); err != nil {
		t.Fatal(err)
	}

	metrics := db.Metrics()
	for _, series := range []string{
		"gbmqo_wal_appends_total", "gbmqo_wal_fsyncs_total", "gbmqo_wal_bytes_total",
		"gbmqo_wal_replayed_records_total", "gbmqo_wal_truncated_tails_total",
		"gbmqo_snapshot_writes_total", "gbmqo_snapshot_age_seconds",
	} {
		if _, ok := metrics[series]; !ok {
			t.Fatalf("metrics output missing %s: %v", series, metrics)
		}
	}
	if metrics["gbmqo_wal_appends_total"] == 0 {
		t.Fatalf("wal appends counter stayed zero: %v", metrics)
	}
	sections := db.HealthSections()
	detail, ok := sections["durability"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing durability section: %v", sections)
	}
	if detail["fsync_policy"] != FsyncAlways {
		t.Fatalf("durability detail: %v", detail)
	}
}

// TestDurableFallbackSnapshotUsable: snapshot retention keeps an older
// snapshot so recovery can fall back when the newest is corrupt — which only
// works if WAL pruning spares every record past the OLDEST retained horizon.
// Pruning to the newest horizon would leave the fallback with a replay gap and
// recovery would fail its ExpectRows verification permanently.
func TestDurableFallbackSnapshotUsable(t *testing.T) {
	dir := t.TempDir()
	// Tiny WAL segments so pruning actually has non-active segments to delete.
	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1, WALSegmentBytes: 256})
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 50) {
		tb.AppendRow(row...)
	}
	db.Register(tb) // snapshot 1: WAL horizon 0
	for i := 0; i < 5; i++ {
		if _, err := db.Append("events", durableRows(50+i*50, 50)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	live, _ := db.Table("events")
	want := tableBytes(t, live)
	mustClose(t, db) // snapshot 2 (newest): full horizon; prune runs here

	// Corrupt the newest snapshot; recovery must fall back to the
	// registration-time snapshot and replay the entire WAL suffix past it.
	snaps, err := filepath.Glob(filepath.Join(dir, snapSubdir, "snap-*.gbs"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("retained snapshots: %v (err=%v), want >= 2", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, rep := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer mustClose(t, db2)
	if !rep.SnapshotLoaded {
		t.Fatalf("fallback snapshot not loaded: %+v", rep)
	}
	if rep.ReplayedRecords != 5 {
		t.Fatalf("replayed %d records via fallback, want 5 (%+v)", rep.ReplayedRecords, rep)
	}
	got, ok := db2.Table("events")
	if !ok || got.NumRows() != 300 {
		t.Fatalf("recovered table: ok=%v rows=%d", ok, got.NumRows())
	}
	if tableBytes(t, got) != want {
		t.Fatal("fallback recovery is not byte-identical")
	}
}

// TestRegisterDurableSurfacesSnapshotFailure: a durable registration whose
// snapshot cannot be written must return the error (the table would be lost
// on crash), while still registering the table in memory.
func TestRegisterDurableSurfacesSnapshotFailure(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurableEvents(t, dir, &DurabilityOptions{SnapshotInterval: -1})
	defer db.Close(context.Background()) // close-time snapshot fails too; ignore
	// Sabotage the snapshot directory: a regular file where it must go.
	if err := os.WriteFile(filepath.Join(dir, snapSubdir), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 10) {
		tb.AppendRow(row...)
	}
	if err := db.RegisterDurable(tb); err == nil {
		t.Fatal("RegisterDurable reported success with an unwritable snapshot dir")
	}
	if _, ok := db.Table("events"); !ok {
		t.Fatal("table missing from in-memory catalog after failed durable registration")
	}
}

// FuzzManifest feeds arbitrary bytes to the cache manifest decoder. It must
// never panic; it may accept only a manifest of this build's format whose
// CRC matches its entries — an older format or a bad CRC is discarded — and
// what it accepts must re-encode as writeManifest writes it and decode back
// equal. Seeds (testdata/fuzz/FuzzManifest): a current manifest, one of the
// previous format, one from before the format field, and one whose CRC does
// not match.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, ok := decodeManifest(data)
		if !ok {
			return
		}
		var env manifestEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Format != manifestFormat {
			t.Fatalf("accepted a manifest of format %d (%v)", env.Format, err)
		}
		body, err := json.Marshal(env.Entries)
		if err != nil || fmt.Sprintf("%08x", crc32.Checksum(body, manifestCRC)) != env.CRC {
			t.Fatalf("accepted a manifest whose CRC %q does not match its entries", env.CRC)
		}
		buf, err := encodeManifest(entries)
		if err != nil {
			t.Fatalf("accepted entries do not re-encode: %v", err)
		}
		again, ok := decodeManifest(buf)
		if !ok || !(len(again) == 0 && len(entries) == 0 || reflect.DeepEqual(again, entries)) {
			t.Fatalf("re-encoded manifest reads back %v (ok=%v), want %v", again, ok, entries)
		}
	})
}

// TestManifestSeeds pins the verdict on each checked-in manifest seed.
func TestManifestSeeds(t *testing.T) {
	for name, want := range map[string]bool{"format3": true, "format2": false, "format1_no_format_field": false, "crc_mismatch": false} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzManifest", name))
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(string(raw), "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := decodeManifest([]byte(data)); ok != want {
			t.Errorf("%s: accepted=%v, want %v", name, ok, want)
		}
	}
}
