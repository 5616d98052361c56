// Package wal is the append-ahead log behind the durability layer: every
// acknowledged streaming append is framed, CRC32C-protected, and written to a
// segmented log before it is applied to the in-memory engine, so a process
// death loses at most the unacknowledged tail. Segments rotate at a byte
// threshold, fsync policy is configurable (always / interval / off), and the
// reader detects a torn or corrupt tail by CRC and truncates it instead of
// failing recovery.
package wal

import (
	"fmt"

	"gbmqo/internal/codec"
	"gbmqo/internal/table"
)

// Record is one logical WAL entry. Append records carry the full row payload
// of one streaming append plus the row count the table must reach after the
// apply (the replay-time verification fingerprint). Abort records mark a
// previously written append whose in-memory apply failed after the log write:
// replay must skip the aborted sequence so recovered state matches what the
// original process acknowledged.
type Record struct {
	// Seq is the record's log sequence number, assigned by the writer,
	// strictly increasing across segments.
	Seq uint64
	// Abort marks this record as an abort marker for sequence Seq (the rows
	// and table of an abort record are empty).
	Abort bool
	// Table names the base table appended to.
	Table string
	// ExpectRows is the table's row count after this append applies — checked
	// during replay so a divergent recovery is detected, not silently served.
	ExpectRows int
	// Rows is the appended row payload, one Value per column in schema order.
	Rows [][]table.Value
}

const (
	flagAbort = 1 << 0
	nullBit   = 0x80
)

// encodePayload renders the record body (everything the frame CRC covers):
//
//	uvarint seq, 1B flags
//	append records only:
//	  uvarint len(table), table, uvarint expectRows
//	  uvarint nrows, uvarint ncols
//	  per cell: 1B tag (type | nullBit), then the value unless NULL
func encodePayload(r *Record) []byte {
	var w codec.Writer
	w.Uvarint(r.Seq)
	if r.Abort {
		w.Byte(flagAbort)
		return w.Bytes()
	}
	w.Byte(0)
	w.Str(r.Table)
	w.Uvarint(uint64(r.ExpectRows))
	ncols := 0
	if len(r.Rows) > 0 {
		ncols = len(r.Rows[0])
	}
	w.Uvarint(uint64(len(r.Rows)))
	w.Uvarint(uint64(ncols))
	for _, row := range r.Rows {
		for _, v := range row {
			if v.Null {
				w.Byte(byte(v.Typ) | nullBit)
				continue
			}
			w.Byte(byte(v.Typ))
			w.Value(v)
		}
	}
	return w.Bytes()
}

// decodePayload parses one record body. A malformed body is an error, not a
// panic: a CRC-valid frame can still hold one, and replay treats it as a tear.
func decodePayload(buf []byte) (*Record, error) {
	r := codec.NewReader(buf)
	rec := &Record{Seq: r.Uvarint()}
	if r.Byte()&flagAbort != 0 {
		rec.Abort = true
	} else {
		rec.Table = r.Str()
		rec.ExpectRows = int(r.Uvarint())
		nrows := r.Uvarint()
		ncols := r.Count(1)
		// Every cell holds at least its tag byte, so the rows are bounded by
		// the bytes left; rows of no columns hold none and never fit.
		n := r.Fit(nrows, ncols)
		cells := make([]table.Value, n*ncols)
		rec.Rows = make([][]table.Value, n)
		for i := range rec.Rows {
			row := cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for ci := range row {
				tag := r.Byte()
				typ := r.Type(tag &^ nullBit)
				if tag&nullBit != 0 {
					row[ci] = table.Null(typ)
				} else {
					row[ci] = r.Value(typ)
				}
			}
			rec.Rows[i] = row
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wal: record: %w", err)
	}
	return rec, nil
}
