package table

import (
	"encoding/binary"
	"fmt"
)

// Append returns a new snapshot of the table with rows appended, sharing the
// image backing and (extended) dictionaries with its parent: writes land past
// the parent's row count, so its readers never see them, and a copy keeps a
// quarter of headroom, so chained appends cost O(delta). Codes are stable
// across snapshots — a code in a cached aggregate over the parent means the
// same value over the child — which lets cached results roll forward.
//
// Append must only be called on the NEWEST snapshot of a lineage, one call
// at a time (the engine serializes appends per catalog); a second child of
// one parent is guarded anyway, its image and dictionaries copying instead
// of writing over the first child's tail (see frontier and dict.claim).
// Validation is all-or-nothing and happens before any shared state is
// touched.
func (t *Table) Append(rows [][]Value) *Table {
	for ri, row := range rows {
		if len(row) != len(t.cols) {
			panic(fmt.Sprintf("table %q: Append row %d has %d values, want %d", t.name, ri, len(row), len(t.cols)))
		}
		for ci, v := range row {
			if !v.Null && v.Typ != t.cols[ci].def.Typ {
				panic(fmt.Sprintf("table %q: Append row %d column %q: %s value in %s column",
					t.name, ri, t.cols[ci].def.Name, v.Typ, t.cols[ci].def.Typ))
			}
		}
	}
	stride := t.img.stride
	tail := make([]byte, len(rows)*stride)
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		if c.dict.measure {
			panic(fmt.Sprintf("table %q: Append to measure column %q, which is immutable", t.name, c.def.Name))
		}
		out := c.like("", true) // the parent's rows are a prefix
		out.dict = c.dict.extend()
		for ri, row := range rows {
			binary.LittleEndian.PutUint32(tail[ri*stride+4*i:], out.dict.code(row[i]))
		}
		cols[i] = out
	}
	out := newTable(t.name, cols, extendImage(t.img, tail, snapshotSlack), t.nrows+len(rows))
	out.deltaStart = t.nrows
	return out
}

// DeltaStart returns the append watermark: rows [DeltaStart, NumRows) arrived
// in the Append call that produced this snapshot. Zero for tables not produced
// by Append.
func (t *Table) DeltaStart() int { return t.deltaStart }

// HasDelta reports whether this snapshot was produced by Append and carries a
// non-empty delta segment.
func (t *Table) HasDelta() bool { return t.deltaStart > 0 && t.deltaStart < t.nrows }

// DeltaView returns a table over only the delta segment [DeltaStart, NumRows),
// sharing this snapshot's image and dictionaries so codes keep their meaning.
// The engine aggregates this view with the ordinary kernels and merges the
// result into cached entries. The three-index slice caps the view's image at
// the segment end, so an extension of the view copies instead of writing
// over shared backing.
func (t *Table) DeltaView() *Table {
	stride := t.img.stride
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.like("", false)
	}
	data := t.img.data[t.deltaStart*stride : t.nrows*stride : t.nrows*stride]
	return newTable(t.name+"__delta", cols, &image{data: data, stride: stride}, t.nrows-t.deltaStart)
}
