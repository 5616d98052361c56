// Package snapshot persists point-in-time table images so recovery replays a
// bounded WAL suffix instead of the whole history. An image is the column
// store's own decomposition — per-column dictionary values in code order plus
// the code vector — captured at a pinned epoch, so the restored table is
// byte-identical to the captured one: same codes, same row image, same
// fingerprint, and therefore the same checksums every rewarmed cache entry
// must reproduce. Files are written atomically (tmp + rename + dir fsync),
// carry a whole-body CRC32C, and the loader falls back to the previous
// snapshot when the newest is torn or corrupt.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"gbmqo/internal/codec"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

const (
	magic      = "GBSNAP1\x00"
	filePrefix = "snap-"
	fileSuffix = ".gbs"
	// keep is how many most-recent snapshots survive pruning: the newest plus
	// one fallback in case the newest is later found torn.
	keep = 2
)

// TableImage is one table's serialized decomposition at a pinned epoch.
type TableImage struct {
	Name    string
	Version uint64
	Delta   uint64
	Defs    []table.ColumnDef
	// Dicts[i] holds column i's dictionary values in code order; Codes[i] its
	// code vector. Restoring interns Dicts[i] in order, reproducing every code.
	Dicts [][]table.Value
	Codes [][]uint32
	// Fingerprint is Fingerprint() of the source table, recomputed after
	// restore to verify the rebuild.
	Fingerprint uint64
}

// Snapshot is a consistent image of every base table plus the WAL horizon it
// covers: recovery replays only records with sequence > WalSeq.
type Snapshot struct {
	WalSeq uint64
	Tables []TableImage
}

// ImageOf captures a table's decomposition. The caller must hold whatever
// lock serializes appends to this table's lineage — dictionary backing is
// shared across append snapshots, and DictValues reads it. The returned image
// owns copies of the dictionary values and of each column's codes, gathered
// once from the table's row-major image into the column-major form the file
// stores.
func ImageOf(t *table.Table, version, delta uint64) TableImage {
	img := TableImage{
		Name:    t.Name(),
		Version: version,
		Delta:   delta,
		Defs:    append([]table.ColumnDef(nil), t.Defs()...),
		Dicts:   make([][]table.Value, t.NumCols()),
		Codes:   make([][]uint32, t.NumCols()),
	}
	for i := 0; i < t.NumCols(); i++ {
		c := t.Col(i)
		img.Dicts[i] = c.DictValues()
		img.Codes[i] = c.View().Gather()
	}
	img.Fingerprint = fingerprintParts(img.Defs, img.Dicts, func(c, r int) uint32 { return img.Codes[c][r] }, t.NumRows())
	return img
}

// Restore rebuilds the table from its image and verifies the fingerprint.
func Restore(img *TableImage) (*table.Table, error) {
	rows := 0
	if len(img.Codes) > 0 {
		rows = len(img.Codes[0])
	}
	b := table.NewBuilder(img.Name, rows, len(img.Defs))
	seen := make(map[string]bool, len(img.Defs))
	for i, def := range img.Defs {
		// The builder panics on a duplicate or empty name; a decoded image can
		// hold them, so they are errors here.
		if seen[def.Name] || def.Name == "" {
			return nil, fmt.Errorf("snapshot: table %q: column %d name %q is empty or duplicate", img.Name, i, def.Name)
		}
		seen[def.Name] = true
		if _, err := b.AddParts(def, img.Dicts[i], img.Codes[i]); err != nil {
			return nil, fmt.Errorf("snapshot: table %q: %w", img.Name, err)
		}
	}
	t := b.Table()
	if got := Fingerprint(t); got != img.Fingerprint {
		return nil, fmt.Errorf("snapshot: table %q fingerprint mismatch: restored %016x, stored %016x",
			img.Name, got, img.Fingerprint)
	}
	return t, nil
}

// Fingerprint hashes a table's logical content — column definitions,
// dictionary values in code order, and code vectors — with FNV-64a. It hashes
// the same decomposition the snapshot stores, read from the table in place.
func Fingerprint(t *table.Table) uint64 {
	dicts := make([][]table.Value, t.NumCols())
	views := make([]table.CodeView, t.NumCols())
	for i := range dicts {
		dicts[i], views[i] = t.Col(i).DictValues(), t.Col(i).View()
	}
	return fingerprintParts(t.Defs(), dicts, func(c, r int) uint32 { return views[c].At(r) }, t.NumRows())
}

// fingerprintParts is Fingerprint over a decomposition whose column c holds
// code(c, r) at row r.
func fingerprintParts(defs []table.ColumnDef, dicts [][]table.Value, code func(c, r int) uint32, rows int) uint64 {
	h := fnv.New64a()
	var tmp [8]byte
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(tmp[:], v); h.Write(tmp[:]) }
	for i, def := range defs {
		io.WriteString(h, def.Name)
		h.Write([]byte{0, byte(def.Typ)})
		for _, v := range dicts[i] {
			hashValue(h, w64, v)
		}
		h.Write([]byte{0xff})
		for r := range rows {
			binary.LittleEndian.PutUint32(tmp[:4], code(i, r))
			h.Write(tmp[:4])
		}
		h.Write([]byte{0xfe})
	}
	return h.Sum64()
}

func hashValue(h io.Writer, w64 func(uint64), v table.Value) {
	switch v.Typ {
	case table.TInt64, table.TDate:
		w64(uint64(v.I))
	case table.TFloat64:
		w64(math.Float64bits(v.F))
	case table.TString:
		io.WriteString(h, v.S)
		h.Write([]byte{0})
	}
}

// Write persists the snapshot atomically as the next ordinal file in dir and
// prunes all but the newest `keep` snapshots. The snapshot.write failpoint
// fires before any byte is written, so an injected crash leaves the previous
// snapshot untouched.
func Write(dir string, s *Snapshot) (string, error) {
	exec.Testing.Fire("snapshot.write")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	ords, err := listOrdinals(dir)
	if err != nil {
		return "", err
	}
	next := uint64(1)
	if len(ords) > 0 {
		next = ords[len(ords)-1] + 1
	}
	body := encodeBody(s)
	buf := append(make([]byte, 0, len(magic)+codec.FrameHeader+len(body)), magic...)
	buf, err = codec.AppendFrame(buf, body, math.MaxUint32)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	final := filepath.Join(dir, fileName(next))
	if err := codec.WriteFileAtomic(final, buf); err != nil {
		return "", err
	}
	prune(dir)
	return final, nil
}

// Load reads the newest valid snapshot in dir, falling back to older ones
// when the newest is torn or corrupt (its file is removed so the next writer
// does not stack ordinals on garbage). The returned path lets a caller that
// later finds the snapshot unusable (a failed restore) remove it and call
// Load again for the next-older fallback. Returns (nil, "", nil) when no
// snapshot exists — a cold start, not an error.
func Load(dir string) (*Snapshot, string, error) {
	ords, err := listOrdinals(dir)
	if err != nil {
		return nil, "", err
	}
	for i := len(ords) - 1; i >= 0; i-- {
		path := filepath.Join(dir, fileName(ords[i]))
		s, err := loadFile(path)
		if err == nil {
			return s, path, nil
		}
		// Corrupt or torn: drop it and fall back.
		os.Remove(path)
	}
	return nil, "", nil
}

func loadFile(path string) (*Snapshot, error) {
	body, err := readBody(path)
	if err != nil {
		return nil, err
	}
	return decodeBody(body)
}

// readBody reads a snapshot file and returns its body after verifying the
// magic and that the rest of the file is exactly one intact frame.
func readBody(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: %s: bad magic", path)
	}
	body, n, err := codec.ReadFrame(data[len(magic):], math.MaxUint32)
	if err == nil && n != len(data)-len(magic) {
		err = fmt.Errorf("%d bytes after the frame", len(data)-len(magic)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return body, nil
}

// OldestRetainedWalSeq returns the WAL horizon of the oldest intact snapshot
// in dir. Retention keeps older snapshots precisely so recovery can fall back
// when the newest is corrupt or unrestorable — a fallback is only usable if
// its replay suffix survives, so WAL pruning must not pass this horizon.
// ok is false when no intact snapshot exists. A corrupt file constrains
// nothing (Load would discard it) and is skipped.
func OldestRetainedWalSeq(dir string) (seq uint64, ok bool) {
	ords, err := listOrdinals(dir)
	if err != nil {
		return 0, false
	}
	for _, ord := range ords {
		body, err := readBody(filepath.Join(dir, fileName(ord)))
		if err != nil {
			continue
		}
		r := codec.NewReader(body)
		if seq := r.Uvarint(); r.Err() == nil {
			return seq, true
		}
	}
	return 0, false
}

func fileName(ord uint64) string {
	return codec.FileName(filePrefix, ord, fileSuffix)
}

func listOrdinals(dir string) ([]uint64, error) {
	return codec.ListFiles(dir, filePrefix, fileSuffix)
}

func prune(dir string) {
	ords, err := listOrdinals(dir)
	if err != nil || len(ords) <= keep {
		return
	}
	for _, ord := range ords[:len(ords)-keep] {
		os.Remove(filepath.Join(dir, fileName(ord)))
	}
}
