package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gbmqo/internal/table"
)

func testRows(n, base int) [][]table.Value {
	rows := make([][]table.Value, n)
	for i := range rows {
		rows[i] = []table.Value{
			table.Int(int64(base + i)),
			table.Str("v" + string(rune('a'+(base+i)%26))),
			table.Float(float64(base+i) * 1.5),
			table.Date(int64(20260000 + base + i)),
			table.Null(table.TString),
		}
	}
	return rows
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Seq: 1, Table: "lineitem", ExpectRows: 105, Rows: testRows(5, 100)},
		{Seq: 2, Abort: true},
		{Seq: 3, Table: "t", ExpectRows: 0, Rows: nil},
	}
	for _, rec := range recs {
		got, err := decodePayload(encodePayload(rec))
		if err != nil {
			t.Fatalf("decode seq %d: %v", rec.Seq, err)
		}
		if got.Seq != rec.Seq || got.Abort != rec.Abort || got.Table != rec.Table ||
			got.ExpectRows != rec.ExpectRows {
			t.Fatalf("header mismatch: got %+v want %+v", got, rec)
		}
		if len(rec.Rows) > 0 && !reflect.DeepEqual(got.Rows, rec.Rows) {
			t.Fatalf("rows mismatch for seq %d", rec.Seq)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := encodePayload(&Record{Seq: 7, Table: "t", ExpectRows: 2, Rows: testRows(2, 0)})
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodePayload(good[:cut]); err == nil {
			// Some prefixes decode cleanly (e.g. cutting inside the trailing
			// rows can still leave a shorter valid record only if counts
			// matched, which they won't here) — any clean decode is a bug.
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestWriterReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]int)
	for i := 0; i < 10; i++ {
		seq, err := w.Append(&Record{Table: "lineitem", ExpectRows: (i + 1) * 3, Rows: testRows(3, i*3)})
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = (i + 1) * 3
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []uint64
	st, err := Replay(dir, 0, func(r *Record) error {
		got = append(got, r.Seq)
		if r.ExpectRows != want[r.Seq] {
			t.Fatalf("seq %d expectRows %d want %d", r.Seq, r.ExpectRows, want[r.Seq])
		}
		if len(r.Rows) != 3 {
			t.Fatalf("seq %d has %d rows", r.Seq, len(r.Rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 10 || st.TruncatedTails != 0 {
		t.Fatalf("stats %+v", st)
	}
	for i, seq := range got {
		if i > 0 && seq <= got[i-1] {
			t.Fatalf("sequences out of order: %v", got)
		}
	}

	// Replay from a midpoint delivers only the suffix.
	n := 0
	if _, err := Replay(dir, got[4], func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replay after mid seq delivered %d records, want 5", n)
	}
}

func TestSegmentRotationAndObsolete(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		last, err = w.Append(&Record{Table: "t", ExpectRows: i + 1, Rows: testRows(1, i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}

	// Everything up to the last record is snapshot-covered: all but the
	// active segment become removable.
	removed, err := w.RemoveObsolete(last)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected obsolete segments removed")
	}
	n := 0
	if _, err := Replay(dir, last, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replay past snapshot seq delivered %d records", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRotationWritesNothing squats a directory on the next segment's
// name, so opening that segment fails. The append that needs it must fail
// before a sequence is assigned — its rows never reach Replay — and once the
// squatter is gone the next append rotates and succeeds: replay returns
// exactly the acknowledged records.
func TestFailedRotationWritesNothing(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncAlways, SegmentBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	squat := filepath.Join(dir, segName(2))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	s1, err := w.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	acked = append(acked, s1)
	if _, err := w.Append(&Record{Table: "t", ExpectRows: 2, Rows: testRows(1, 1)}); err == nil {
		t.Fatal("append into a squatted segment name succeeded")
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	s3, err := w.Append(&Record{Table: "t", ExpectRows: 2, Rows: testRows(1, 2)})
	if err != nil {
		t.Fatalf("append after the squatter left: %v", err)
	}
	acked = append(acked, s3)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var firsts []int64
	if _, err := Replay(dir, 0, func(r *Record) error {
		got = append(got, r.Seq)
		firsts = append(firsts, r.Rows[0][0].I)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, acked) || !reflect.DeepEqual(firsts, []int64{0, 2}) {
		t.Fatalf("replayed seqs %v rows %v, want the acknowledged %v rows [0 2]", got, firsts, acked)
	}
}

// TestStatsCountsSegments checks the writer's own segment count against the
// directory after Open over existing segments, rotations and RemoveObsolete.
func TestStatsCountsSegments(t *testing.T) {
	dir := t.TempDir()
	listed := func() int {
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	opts := Options{Dir: dir, Policy: FsyncOff, SegmentBytes: 64}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(&Record{Table: "t", ExpectRows: i + 1, Rows: testRows(1, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got, want := w.Stats().Segments, listed(); got != want {
		t.Fatalf("after reopen Stats().Segments = %d, directory holds %d", got, want)
	}
	var last uint64
	for i := 3; i < 8; i++ {
		if last, err = w.Append(&Record{Table: "t", ExpectRows: i + 1, Rows: testRows(1, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := w.Stats().Segments, listed(); got != want || got < 5 {
		t.Fatalf("after rotations Stats().Segments = %d, directory holds %d (want ≥ 5)", got, want)
	}
	removed, err := w.RemoveObsolete(last)
	if err != nil || removed == 0 {
		t.Fatalf("RemoveObsolete removed %d: %v", removed, err)
	}
	if got, want := w.Stats().Segments, listed(); got != want {
		t.Fatalf("after RemoveObsolete Stats().Segments = %d, directory holds %d", got, want)
	}
}

func TestAbortMarkerSkipsRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := w.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 0)})
	s2, _ := w.Append(&Record{Table: "t", ExpectRows: 2, Rows: testRows(1, 1)})
	if err := w.AppendAbort(s2); err != nil {
		t.Fatal(err)
	}
	s3, _ := w.Append(&Record{Table: "t", ExpectRows: 2, Rows: testRows(1, 2)})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	st, err := Replay(dir, 0, func(r *Record) error { got = append(got, r.Seq); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != s1 || got[1] != s3 {
		t.Fatalf("replayed %v, want [%d %d]", got, s1, s3)
	}
	if st.Aborted != 1 {
		t.Fatalf("aborted count %d, want 1", st.Aborted)
	}
}

// TestAbortAfterRotationSurvivesReopen covers a log whose AppendAbort landed
// as the first frame of a segment named one past the aborted sequence — the
// layout of a writer that rotated at the end of the Append that filled a
// segment, as earlier builds did. A reopening writer wants exactly that name;
// it must burn the label rather than delete the segment — deleting it would
// destroy the abort marker while the voided append survives in the earlier
// segment, resurrecting a never-acknowledged append at the next recovery.
func TestAbortAfterRotationSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncAlways, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := w.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// The writer now rotates at the start of the next Append; rotate here to
	// lay the log out as the earlier builds did.
	w.mu.Lock()
	err = w.rotateLocked()
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the apply failing after the log write: the abort marker is the
	// only frame of the freshly rotated segment, carrying the OLDER sequence.
	if err := w.AppendAbort(s1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir, Policy: FsyncAlways, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	found := false
	for _, s := range segs {
		if s.firstSeq == s1+1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reopen deleted the abort-marker segment: %+v", segs)
	}
	s2, err := w2.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1+2 {
		t.Fatalf("resumed at seq %d, want %d (label %d burned)", s2, s1+2, s1+1)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	var got []uint64
	st, err := Replay(dir, 0, func(r *Record) error { got = append(got, r.Seq); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Aborted != 1 {
		t.Fatalf("aborted count %d, want 1", st.Aborted)
	}
	if len(got) != 1 || got[0] != s2 {
		t.Fatalf("replay delivered %v, want [%d] only — aborted append resurrected", got, s2)
	}
}

// TestEmptyStaleSegmentReclaimed keeps the original reclaim behavior: a
// process that opened the log but never committed anything leaves an empty
// segment, and the next writer reuses its name (and its sequence).
func TestEmptyStaleSegmentReclaimed(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("resumed at seq %d, want 1", seq)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("empty stale segment not reclaimed: %+v", segs)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundSyncFailureRefusesAppend: once the FsyncInterval flusher hits
// an fsync error, the writer must stop acknowledging appends instead of
// silently degrading to FsyncOff until Close.
func TestBackgroundSyncFailureRefusesAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 0)}); err != nil {
		t.Fatal(err)
	}
	sick := errors.New("fsync: input/output error")
	w.flushErrMu.Lock()
	w.flushErr = sick
	w.flushErrMu.Unlock()
	if _, err := w.Append(&Record{Table: "t", ExpectRows: 2, Rows: testRows(1, 1)}); !errors.Is(err, sick) {
		t.Fatalf("append after failed background fsync: err=%v, want wrapped %v", err, sick)
	}
	if got := w.Stats().SyncErr; !errors.Is(got, sick) {
		t.Fatalf("Stats.SyncErr = %v, want %v", got, sick)
	}
	// Abort markers stay writable: refusing them could resurrect records.
	if err := w.AppendAbort(1); err != nil {
		t.Fatalf("AppendAbort after failed background fsync: %v", err)
	}
	if err := w.Close(); !errors.Is(err, sick) {
		t.Fatalf("Close = %v, want the sticky sync error", err)
	}
}

func TestDecodeRejectsCellCountOverflow(t *testing.T) {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	uv(1)                  // seq
	buf = append(buf, 0)   // flags
	uv(1)                  // len(table)
	buf = append(buf, 't') // table
	uv(0)                  // expectRows
	uv(1 << 62)            // nrows
	uv(4)                  // ncols: product wraps uint64 to 0
	if _, err := decodePayload(buf); err == nil {
		t.Fatal("cell-count overflow decoded without error")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(&Record{Table: "t", ExpectRows: i + 1, Rows: testRows(1, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[len(segs)-1].name)

	// Simulate a torn write: garbage appended to the active segment.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	n := 0
	st, err := Replay(dir, 0, func(*Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replay after tear delivered %d records, want 5", n)
	}
	if st.TruncatedTails != 1 {
		t.Fatalf("truncated tails %d, want 1", st.TruncatedTails)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("tail not truncated: %d -> %d", before.Size(), after.Size())
	}

	// A second replay over the repaired log is clean.
	n = 0
	st, err = Replay(dir, 0, func(*Record) error { n++; return nil })
	if err != nil || n != 5 || st.TruncatedTails != 0 {
		t.Fatalf("re-replay: n=%d st=%+v err=%v", n, st, err)
	}

	// A writer reopened over the repaired log continues past the old tail.
	w2, err := Open(Options{Dir: dir, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append(&Record{Table: "t", ExpectRows: 6, Rows: testRows(1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("resumed at seq %d, want 6", seq)
	}
	w2.Close()
}

func TestCorruptMiddleFrameDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := w.Append(&Record{Table: "t", ExpectRows: i + 1, Rows: testRows(1, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip a byte mid-log: replay keeps everything before the corrupt
	// segment's tear and removes everything after it.
	mid := filepath.Join(dir, segs[1].name)
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+frameHdr] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got []uint64
	st, err := Replay(dir, 0, func(r *Record) error { got = append(got, r.Seq); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.TruncatedTails != 1 {
		t.Fatalf("truncated tails %d, want 1", st.TruncatedTails)
	}
	if len(got) == 0 || len(got) >= 12 {
		t.Fatalf("replay after mid-log corruption delivered %d records", len(got))
	}
	for _, seq := range got {
		if seq >= segs[1].firstSeq+uint64(0) && seq > got[len(got)-1] {
			t.Fatalf("out-of-order seq %d", seq)
		}
	}
	if rem, _ := listSegments(dir); len(rem) >= len(segs) {
		t.Fatalf("segments past the tear not removed: %d -> %d", len(segs), len(rem))
	}
}

func TestIntervalPolicyFlushes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(&Record{Table: "t", ExpectRows: 1, Rows: testRows(1, 0)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := w.Stats()
		if st.Fsyncs > 0 && st.DirtyBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never synced: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
