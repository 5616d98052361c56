// Package codec is the format of the durable files, the WAL's segments and
// the snapshot files: an append-only Writer, a bounds-checked Reader whose
// first error sticks, the typed Value layout, the CRC32C frame both files
// carry after their magic, their numbered names, and the atomic file write
// and directory sync that make a written file survive a power cut.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"gbmqo/internal/table"
)

// Writer appends uvarints, little-endian fixed-width integers, strings and
// values to one growing byte slice. The zero Writer is empty and ready.
type Writer struct{ buf []byte }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends v as a uvarint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// U32 appends v as 4 little-endian bytes.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends v as 8 little-endian bytes.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Str appends s as a uvarint length followed by its bytes.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Value appends a non-NULL value without its type: 8 bytes for TInt64, TDate
// and a TFloat64's bits, a Str for a TString.
func (w *Writer) Value(v table.Value) {
	switch v.Typ {
	case table.TInt64, table.TDate:
		w.U64(uint64(v.I))
	case table.TFloat64:
		w.U64(math.Float64bits(v.F))
	case table.TString:
		w.Str(v.S)
	}
}

// MinValueBytes is the fewest bytes Value writes for a value of type t.
func MinValueBytes(t table.Type) int {
	if t == table.TString {
		return 1
	}
	return 8
}

// Reader decodes what a Writer wrote. Every read is bounds-checked; the first
// failure is kept and every later read returns a zero value, so a decoder
// checks Err once at the end. Malformed input is an error, never a panic.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error when bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// Bytes returns the next n bytes, aliasing the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("truncated field (want %d bytes, %d left)", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.off += n
	return v
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a uvarint length and that many bytes.
func (r *Reader) Str() string {
	return string(r.Bytes(r.Count(1)))
}

// Count reads a uvarint element count and admits it only when the unread
// bytes can hold that many elements of at least minBytes each, so a short
// input claiming a huge count fails before anything is allocated for it.
func (r *Reader) Count(minBytes int) int {
	return r.Fit(r.Uvarint(), minBytes)
}

// Fit applies Count's rule to a count n already read. An element of no bytes
// never fits, so a positive count of them fails.
func (r *Reader) Fit(n uint64, minBytes int) int {
	if r.err != nil || n == 0 {
		return 0
	}
	if left := len(r.buf) - r.off; minBytes <= 0 || n > uint64(left/minBytes) {
		r.fail("count %d of %d-byte elements exceeds the %d bytes left", n, minBytes, left)
		return 0
	}
	return int(n)
}

// Type admits b as a column type, failing on an unknown one.
func (r *Reader) Type(b byte) table.Type {
	if t := table.Type(b); t <= table.TDate {
		return t
	}
	r.fail("unknown type %d", b)
	return 0
}

// Value reads a non-NULL value of type t in Writer.Value's layout.
func (r *Reader) Value(t table.Type) table.Value {
	switch t {
	case table.TInt64:
		return table.Int(int64(r.U64()))
	case table.TDate:
		return table.Date(int64(r.U64()))
	case table.TFloat64:
		return table.Float(math.Float64frombits(r.U64()))
	case table.TString:
		return table.Str(r.Str())
	}
	return table.Value{}
}

// FrameHeader is the size of a frame's payload length and CRC32C.
const FrameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as [u32 len][u32 CRC32C][payload], both
// little-endian. A payload over limit, which ReadFrame would refuse, is
// refused here with dst unchanged.
func AppendFrame(dst, payload []byte, limit uint32) ([]byte, error) {
	if uint64(len(payload)) > uint64(limit) {
		return dst, fmt.Errorf("payload of %d bytes exceeds the %d-byte frame limit", len(payload), limit)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

// ReadFrame checks the frame at the start of b and returns its payload, which
// aliases b, and the frame's length. A torn or corrupt frame is an error.
func ReadFrame(b []byte, limit uint32) (payload []byte, n int, err error) {
	if len(b) < FrameHeader {
		return nil, 0, fmt.Errorf("short frame header")
	}
	size := binary.LittleEndian.Uint32(b)
	if size > limit {
		return nil, 0, fmt.Errorf("frame length out of range")
	}
	if uint64(len(b)-FrameHeader) < uint64(size) {
		return nil, 0, fmt.Errorf("short frame payload (%d of %d bytes)", len(b)-FrameHeader, size)
	}
	payload = b[FrameHeader : FrameHeader+int(size)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, fmt.Errorf("payload CRC mismatch")
	}
	return payload, FrameHeader + len(payload), nil
}

// WriteFileAtomic replaces path with data so that a crash leaves the old file
// or the whole new one: temp file, fsync, rename, directory fsync.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs dir. A file just created or renamed survives a power cut
// only once its directory is synced: fsync(2) of the file does not do it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// FileName names file n of a numbered series: n in 20 zero-padded digits
// between prefix and suffix, so names sort in number order.
func FileName(prefix string, n uint64, suffix string) string {
	return fmt.Sprintf("%s%020d%s", prefix, n, suffix)
}

// ListFiles returns the numbers of dir's files named by FileName with prefix
// and suffix, ascending; other entries are ignored. A missing dir holds none.
func ListFiles(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	var ns []uint64
	for _, e := range ents {
		num := strings.TrimSuffix(strings.TrimPrefix(e.Name(), prefix), suffix)
		n, perr := strconv.ParseUint(num, 10, 64)
		if perr == nil && !e.IsDir() && e.Name() == FileName(prefix, n, suffix) {
			ns = append(ns, n)
		}
	}
	slices.Sort(ns)
	return ns, err
}
