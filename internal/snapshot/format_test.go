package snapshot

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"

	"gbmqo/internal/table"
)

// goldenFile was written by an earlier build from goldenSnapshot(). It pins
// the snapshot format, so data directories written before a codec change
// still open after it.
const goldenFile = "testdata/snap-00000000000000000001.gbs"

func goldenSnapshot() *Snapshot {
	orders := table.New("orders", []table.ColumnDef{
		{Name: "k", Typ: table.TInt64},
		{Name: "s", Typ: table.TString},
		{Name: "f", Typ: table.TFloat64},
		{Name: "d", Typ: table.TDate},
	})
	for i := 0; i < 6; i++ {
		row := []table.Value{
			table.Int(int64(i%3) - 1),
			table.Str([]string{"alpha", "β-ünï", ""}[i%3]),
			table.Float(float64(i) * 0.75),
			table.Date(int64(20260101 + i%2)),
		}
		if i == 4 {
			row[1] = table.Null(table.TString)
			row[2] = table.Null(table.TFloat64)
		}
		orders.AppendRow(row...)
	}
	lines := table.New("lines", []table.ColumnDef{{Name: "qty", Typ: table.TInt64}})
	for _, q := range []int64{5, 5, 9} {
		lines.AppendRow(table.Int(q))
	}
	return &Snapshot{WalSeq: 3, Tables: []TableImage{ImageOf(orders, 1, 2), ImageOf(lines, 4, 0)}}
}

// TestGoldenSnapshot decodes the checked-in file to the images that wrote
// it, restores every table, and writes both the decoded snapshot and one
// re-captured from the restored tables back to the same bytes.
func TestGoldenSnapshot(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenSnapshot()) {
		t.Fatalf("decoded %+v, want %+v", got, goldenSnapshot())
	}
	recaptured := &Snapshot{WalSeq: got.WalSeq}
	for i := range got.Tables {
		img := &got.Tables[i]
		tb, err := Restore(img)
		if err != nil {
			t.Fatal(err)
		}
		recaptured.Tables = append(recaptured.Tables, ImageOf(tb, img.Version, img.Delta))
	}
	for name, s := range map[string]*Snapshot{"decoded": got, "re-captured": recaptured} {
		path, err := Write(t.TempDir(), s)
		if err != nil {
			t.Fatal(err)
		}
		if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, want) {
			t.Fatalf("%s snapshot writes %x (err %v), golden file holds %x", name, written, err, want)
		}
	}
}

// TestHugeClaimsAllocateLittle: a body claiming more dictionary values than
// its bytes can hold fails before anything is allocated for them. The input
// is testdata/fuzz/FuzzSnapshotBody/dict_claim, which once allocated 160 MB
// before failing.
func TestHugeClaimsAllocateLittle(t *testing.T) {
	body := []byte{0x01, 0x01, 0x01, 't', 0x00, 0x00, 0x01, 0x01, 'a', 0x00, 0x80, 0x80, 0x80, 0x02}
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeBody(body)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Fatalf("decode allocated %d bytes, err %v; want an error under 1 MiB", n, err)
	}
}

// TestRestoreRejectsInconsistentImage: a decodable image whose columns
// disagree on row count or repeat a name is an error, not a panic.
func TestRestoreRejectsInconsistentImage(t *testing.T) {
	ragged := ImageOf(buildTable(t, "t", 5), 1, 0)
	ragged.Codes[1] = ragged.Codes[1][:4]
	dup := ImageOf(buildTable(t, "t", 5), 1, 0)
	dup.Defs[1].Name = dup.Defs[0].Name
	for name, img := range map[string]*TableImage{"ragged": &ragged, "duplicate name": &dup} {
		if _, err := Restore(img); err == nil {
			t.Errorf("%s image restored", name)
		}
	}
}

// FuzzSnapshotBody feeds arbitrary bodies to the snapshot decoder and
// restores every table it yields, which reaches table.ColumnFromParts. Nothing
// may panic, and a body the decoder accepts must re-encode to bytes that
// decode and re-encode to the same bytes. Seeds: the golden file's body plus
// testdata/fuzz/FuzzSnapshotBody.
func FuzzSnapshotBody(f *testing.F) {
	body, err := readBody(goldenFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := decodeBody(body)
		if err != nil {
			return
		}
		for i := range s.Tables {
			_, _ = Restore(&s.Tables[i])
		}
		enc := encodeBody(s)
		again, err := decodeBody(enc)
		if err != nil {
			t.Fatalf("re-encoded body %x does not decode: %v", enc, err)
		}
		if enc2 := encodeBody(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("body re-encodes to %x, then to %x", enc, enc2)
		}
	})
}
