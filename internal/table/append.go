package table

import "fmt"

// Append returns a new snapshot of the table with rows appended. The receiver
// is left observable exactly as it was: the new snapshot shares the code
// backing arrays and (extended) dictionaries with its parent, and writes land
// strictly past the parent's row count, so readers of the old snapshot never
// see them. Dictionary codes are stable across snapshots — a group-key code in
// a cached aggregate computed over the parent means the same value over the
// child — which is what makes delta roll-forward of cached Group By results
// possible without re-keying.
//
// Concurrency contract: Append must only be called on the NEWEST snapshot of a
// table's lineage, one call at a time (the engine serializes appends per
// catalog). A second child of one parent is guarded anyway: its code arrays,
// image and dictionaries copy instead of writing over the first child's tail
// (see frontier and dict.claim). Readers of any snapshot are always safe.
//
// Validation is all-or-nothing and happens before any shared state is
// touched: a type-mismatched or wrong-arity row leaves the dictionaries and
// code arrays unmodified.
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
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		if c.dict.measure {
			panic(fmt.Sprintf("table %q: Append to measure column %q, which is immutable", t.name, c.def.Name))
		}
		out := &Column{def: c.def, dict: c.dict.extend()}
		extra := make([]uint32, len(rows))
		for ri, row := range rows {
			extra[ri] = out.dict.code(row[i])
		}
		var fr *frontier
		out.codes, fr = extendShared(c.codes, c.frontier(), extra, snapshotSlack)
		out.back.Store(fr)
		out.nullScan.Store(c.nullScan.Load()) // the parent's rows are a prefix
		cols[i] = out
	}
	out := &Table{
		name:       t.name,
		cols:       cols,
		byIdx:      t.byIdx,
		nrows:      t.nrows + len(rows),
		deltaStart: t.nrows,
		img:        &imgState{},
		serial:     serials.Add(1),
	}
	// If the parent's scan image is already built, extend it for the child
	// instead of forcing a full O(rows×cols) repack on the child's first scan.
	// The extension follows the code arrays' rule (see extendShared): writes
	// land strictly past the parent's length, so parent readers (bounded by
	// their own slice length) never see them, and the spare capacity a copy
	// leaves makes chained appends amortized O(delta) instead of O(total) per
	// append.
	t.img.mu.Lock()
	if t.img.data != nil {
		out.img.data, out.img.fr = extendShared(t.img.data, t.img.frontier(), packRows(cols, t.nrows, out.nrows), snapshotSlack)
	}
	t.img.mu.Unlock()
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
// sharing dictionaries with this snapshot so codes keep their meaning. The
// engine aggregates this view with the ordinary kernels and merges the result
// into cached entries. The three-index slice caps capacity at the segment end,
// so an accidental append to the view cannot clobber shared backing.
func (t *Table) DeltaView() *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = &Column{def: c.def, codes: c.codes[t.deltaStart:t.nrows:t.nrows], dict: c.dict}
	}
	return FromColumns(t.name+"__delta", cols)
}
