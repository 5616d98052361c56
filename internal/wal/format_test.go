package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"gbmqo/internal/codec"
	"gbmqo/internal/table"
)

// goldenSegment was written by an earlier build: Append(goldenRecords[0]),
// Append(goldenRecords[1]), AppendAbort(2), Append(goldenRecords[2]) on a
// fresh FsyncOff writer. It pins the segment format, so data directories
// written before a codec change still open after it.
const goldenSegment = "testdata/wal-00000000000000000001.log"

func goldenRecords() []*Record {
	return []*Record{
		{Table: "orders", ExpectRows: 2, Rows: [][]table.Value{
			{table.Int(1), table.Str("alpha"), table.Float(1.5), table.Date(20260101), table.Null(table.TString)},
			{table.Int(-7), table.Str("β-ünï"), table.Float(-0.25), table.Date(-19000), table.Str("x")},
		}},
		{Table: "orders", ExpectRows: 3, Rows: [][]table.Value{
			{table.Int(math.MaxInt64), table.Str(""), table.Float(1e300), table.Date(0), table.Null(table.TString)},
		}},
		{Table: "lines", ExpectRows: 1, Rows: [][]table.Value{
			{table.Int(math.MinInt64), table.Str("tab\tquote\""), table.Float(math.Inf(-1)), table.Date(-1), table.Null(table.TFloat64)},
		}},
	}
}

// TestGoldenSegment decodes the checked-in segment to the records that wrote
// it, and has a writer replaying the same operations reproduce the file byte
// for byte.
func TestGoldenSegment(t *testing.T) {
	want, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	recs := goldenRecords()
	recs[0].Seq, recs[1].Seq, recs[2].Seq = 1, 2, 3
	wantRecs := []*Record{recs[0], recs[1], {Seq: 2, Abort: true}, recs[2]}
	var got []*Record
	if err := scanSegment(goldenSegment, func(rec *Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRecs) {
		t.Fatalf("decoded %+v, want %+v", got, wantRecs)
	}

	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenRecords()[:2] {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendAbort(2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(goldenRecords()[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if written, err := os.ReadFile(filepath.Join(dir, segName(1))); err != nil || !bytes.Equal(written, want) {
		t.Fatalf("writer produced %x (err %v), golden segment holds %x", written, err, want)
	}
}

// TestUndecodableFrameTearsAtItsOffset: a CRC-valid frame whose payload does
// not decode is a tear at that frame, so the records before it in the same
// segment survive replay and the frames after it are cut.
func TestUndecodableFrameTearsAtItsOffset(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncOff})
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
	// Seq 4 with no flags byte, then a valid record the tear must cut.
	tail, _ := codec.AppendFrame(nil, []byte{0x04}, maxFrame)
	tail, _ = codec.AppendFrame(tail, encodePayload(&Record{Seq: 5, Table: "t", ExpectRows: 4, Rows: testRows(1, 3)}), maxFrame)
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var got []uint64
	st, err := Replay(dir, 0, func(r *Record) error { got = append(got, r.Seq); return nil })
	if err != nil || st.TruncatedTails != 1 || !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("replay delivered %v, stats %+v, err %v; want [1 2 3] and one truncated tail", got, st, err)
	}
}

// TestHugeClaimsAllocateLittle: a payload claiming more rows or cells than
// its bytes can hold fails before anything is allocated for them. The first
// input is testdata/fuzz/FuzzWALRecord/rows_of_no_columns, which once
// allocated 1.5 GB of row headers before failing.
func TestHugeClaimsAllocateLittle(t *testing.T) {
	for name, payload := range map[string][]byte{
		"2^26 rows of no columns": {0x01, 0x00, 0x01, 't', 0x00, 0x80, 0x80, 0x80, 0x20, 0x00},
		"2^26 rows of 4 columns":  {0x01, 0x00, 0x01, 't', 0x00, 0x80, 0x80, 0x80, 0x20, 0x04, 0x00},
	} {
		var err error
		n := allocated(func() { _, err = decodePayload(payload) })
		if err == nil || n >= 1<<20 {
			t.Errorf("%s: decode allocated %d bytes, err %v; want an error under 1 MiB", name, n, err)
		}
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAppendRefusesRowsOfNoColumns: such a record would not decode, so
// replay would read it as a tear and drop every later record.
func TestAppendRefusesRowsOfNoColumns(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(&Record{Table: "t", ExpectRows: 2, Rows: [][]table.Value{{}, {}}}); err == nil {
		t.Fatal("appended rows of no columns")
	}
	if st := w.Stats(); st.NextSeq != 1 || st.Bytes != 0 {
		t.Fatalf("refused append burned a sequence or wrote bytes: %+v", st)
	}
}

// FuzzWALRecord feeds arbitrary payloads to the record decoder. It must
// never panic, and a payload it accepts must re-encode to bytes that decode
// and re-encode to the same bytes. Seeds: the golden segment's records plus
// testdata/fuzz/FuzzWALRecord.
func FuzzWALRecord(f *testing.F) {
	for _, rec := range append(goldenRecords(), &Record{Seq: 2, Abort: true}) {
		f.Add(encodePayload(rec))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodePayload(payload)
		if err != nil {
			return
		}
		enc := encodePayload(rec)
		again, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded record %x does not decode: %v", enc, err)
		}
		if enc2 := encodePayload(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("record re-encodes to %x, then to %x", enc, enc2)
		}
	})
}
