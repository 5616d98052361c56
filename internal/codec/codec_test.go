package codec

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gbmqo/internal/table"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	vals := []table.Value{
		table.Int(math.MinInt64), table.Date(-3), table.Float(math.Inf(1)),
		table.Float(-0.5), table.Str(""), table.Str("β-ünï"),
	}
	var w Writer
	w.Uvarint(math.MaxUint64)
	w.Byte(7)
	w.U32(0xdeadbeef)
	w.Str("name")
	for _, v := range vals {
		w.Value(v)
	}
	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Bytes(4); !bytes.Equal(got, []byte{0xef, 0xbe, 0xad, 0xde}) {
		t.Fatalf("U32 bytes = %x", got)
	}
	if got := r.Str(); got != "name" {
		t.Fatalf("Str = %q", got)
	}
	for _, want := range vals {
		if got := r.Value(want.Typ); got != want {
			t.Fatalf("Value = %+v, want %+v", got, want)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderKeepsFirstError: after the first failure every read returns a
// zero value and the error names the first failure's offset.
func TestReaderKeepsFirstError(t *testing.T) {
	r := NewReader([]byte{0x05, 'a', 'b'})
	if s := r.Str(); s != "" || r.Err() == nil {
		t.Fatalf("Str over a 2-byte tail = %q, err %v", s, r.Err())
	}
	first := r.Err()
	if r.Byte() != 0 || r.Uvarint() != 0 || r.U64() != 0 || r.Count(1) != 0 || r.Bytes(0) != nil {
		t.Fatal("a read after the first failure returned a non-zero value")
	}
	if r.Done() != first {
		t.Fatalf("error changed from %v to %v", first, r.Done())
	}
	if r := NewReader([]byte{1, 2}); r.Byte() != 1 || r.Done() == nil {
		t.Fatal("Done accepted a trailing byte")
	}
	if r := NewReader([]byte{9}); r.Type(r.Byte()) != 0 || r.Err() == nil {
		t.Fatal("Type accepted an unknown type byte")
	}
}

// TestCountRule: a claimed count is admitted only when the unread bytes can
// hold that many elements of the stated minimum size, whatever the count's
// magnitude, and an element of no bytes never fits.
func TestCountRule(t *testing.T) {
	for _, tc := range []struct {
		count    uint64
		minBytes int
		left     int
		ok       bool
	}{
		{0, 8, 0, true},
		{3, 4, 12, true},
		{3, 4, 11, false},
		{1 << 40, 1, 64, false},
		{math.MaxUint64, 1, 64, false},
		{1, 0, 64, false},
		{0, 0, 64, true},
	} {
		var w Writer
		w.Uvarint(tc.count)
		b := append(w.Bytes(), make([]byte, tc.left)...)
		r := NewReader(b)
		n := r.Count(tc.minBytes)
		if ok := r.Err() == nil; ok != tc.ok || (ok && uint64(n) != tc.count) || (!ok && n != 0) {
			t.Errorf("Count(%d) of %d over %d bytes = %d, err %v; want ok=%v",
				tc.minBytes, tc.count, tc.left, n, r.Err(), tc.ok)
		}
	}
}

func TestFrameRoundTripAndLimit(t *testing.T) {
	payload := []byte("0123456789")
	frame, err := AppendFrame([]byte("MAGIC"), payload, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadFrame(frame[5:], 10)
	if err != nil || !bytes.Equal(got, payload) || n != len(frame)-5 {
		t.Fatalf("ReadFrame = %q, %d, %v", got, n, err)
	}
	// One byte over the caller's limit is refused on write, before any byte
	// is appended, and on read.
	if out, err := AppendFrame([]byte("MAGIC"), payload, 9); err == nil || string(out) != "MAGIC" {
		t.Fatalf("AppendFrame over the limit = %q, %v", out, err)
	}
	if _, _, err := ReadFrame(frame[5:], 9); err == nil {
		t.Fatal("ReadFrame accepted a frame over its limit")
	}
	for cut := 0; cut < len(frame)-5; cut++ {
		if _, _, err := ReadFrame(frame[5:5+cut], 10); err == nil {
			t.Fatalf("ReadFrame accepted a frame cut to %d bytes", cut)
		}
	}
	bad := append([]byte(nil), frame[5:]...)
	bad[len(bad)-1] ^= 1
	if _, _, err := ReadFrame(bad, 10); err == nil {
		t.Fatal("ReadFrame accepted a flipped payload bit")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only the file", len(ents))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("WriteFileAtomic into a missing directory succeeded")
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}
