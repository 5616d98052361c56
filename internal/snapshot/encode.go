package snapshot

import (
	"encoding/binary"
	"fmt"

	"gbmqo/internal/codec"
	"gbmqo/internal/table"
)

// Body layout (everything after magic + length + CRC):
//
//	uvarint walSeq
//	uvarint ntables
//	per table:
//	  uvarint len(name), name
//	  uvarint version, uvarint delta
//	  uvarint ncols
//	  per column:
//	    uvarint len(colName), colName
//	    1B type
//	    uvarint ndict, then each dictionary value (codec.Writer.Value: 8B LE
//	      for int64/date/float64 bits, uvarint len + bytes for string)
//	    uvarint ncodes, then 4B LE per code
//	  8B LE fingerprint

// The fewest bytes a table and a column occupy: a table's four uvarints
// (name length, version, delta, ncols) and its fingerprint; a column's name
// length, type, ndict and ncodes. Decoding bounds each count by them.
const (
	minTableBytes  = 4 + 8
	minColumnBytes = 4
)

func encodeBody(s *Snapshot) []byte {
	var w codec.Writer
	w.Uvarint(s.WalSeq)
	w.Uvarint(uint64(len(s.Tables)))
	for ti := range s.Tables {
		img := &s.Tables[ti]
		w.Str(img.Name)
		w.Uvarint(img.Version)
		w.Uvarint(img.Delta)
		w.Uvarint(uint64(len(img.Defs)))
		for ci, def := range img.Defs {
			w.Str(def.Name)
			w.Byte(byte(def.Typ))
			w.Uvarint(uint64(len(img.Dicts[ci])))
			for _, v := range img.Dicts[ci] {
				w.Value(v)
			}
			w.Uvarint(uint64(len(img.Codes[ci])))
			for _, code := range img.Codes[ci] {
				w.U32(code)
			}
		}
		w.U64(img.Fingerprint)
	}
	return w.Bytes()
}

func decodeBody(buf []byte) (*Snapshot, error) {
	r := codec.NewReader(buf)
	s := &Snapshot{WalSeq: r.Uvarint()}
	s.Tables = make([]TableImage, r.Count(minTableBytes))
	for ti := range s.Tables {
		img := &s.Tables[ti]
		img.Name = r.Str()
		img.Version = r.Uvarint()
		img.Delta = r.Uvarint()
		ncols := r.Count(minColumnBytes)
		img.Defs = make([]table.ColumnDef, ncols)
		img.Dicts = make([][]table.Value, ncols)
		img.Codes = make([][]uint32, ncols)
		for ci := range img.Defs {
			def := &img.Defs[ci]
			def.Name = r.Str()
			def.Typ = r.Type(r.Byte())
			dict := make([]table.Value, r.Count(codec.MinValueBytes(def.Typ)))
			for di := range dict {
				dict[di] = r.Value(def.Typ)
			}
			img.Dicts[ci] = dict
			raw := r.Bytes(4 * r.Count(4))
			codes := make([]uint32, len(raw)/4)
			for i := range codes {
				codes[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
			img.Codes[ci] = codes
		}
		img.Fingerprint = r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("snapshot: body: %w", err)
	}
	return s, nil
}
