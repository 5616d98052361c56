package table

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
)

// frontier is the write frontier of a backing that successive views share —
// an image's, or a dictionary's value slices (see dict.claim): end is the
// length of the longest view any extension has claimed. A view extends in
// place only when it ends exactly at the frontier (it is the newest view, so
// nothing was written past it), and the claim moves the frontier before the
// write; any other extension copies. So a second child of one parent, or the
// child of a roll that was thrown away, never writes over a sibling's tail.
type frontier struct{ end atomic.Int64 }

func newFrontier(n int) *frontier {
	f := &frontier{}
	f.end.Store(int64(n))
	return f
}

// extendImage returns an image of m's rows followed by extra. It shares m's
// backing, extra written into its spare capacity, when m ends at its
// backing's frontier and the capacity holds extra; otherwise extra goes after
// a copy of m in a fresh backing with 1/slack of headroom (see grown).
// Readers of m never see the write: it lands past their length.
func extendImage(m *image, extra []byte, slack int) *image {
	s, fr := m.data, m.frontier()
	n := len(s)
	if len(extra) > 0 && (n+len(extra) > cap(s) || !fr.end.CompareAndSwap(int64(n), int64(n+len(extra)))) {
		s, fr = grown(s, len(extra), slack), nil
	}
	out := &image{data: append(s[:n], extra...), stride: m.stride}
	out.back.Store(fr)
	return out
}

// Headroom divisors for grown. A cached result is charged its spare
// capacity (see Table.MemSize) and gains a few groups an append, so its
// copies keep a sixteenth; a base snapshot gains a whole delta an append and
// is charged nothing, so its copies keep a quarter and recur less often.
const (
	resultSlack   = 16
	snapshotSlack = 4
)

// grown copies s into a fresh backing with room for extra more bytes and
// 1/slack of headroom, so a lineage that keeps extending re-copies its
// backing once per that much growth.
func grown(s []byte, extra, slack int) []byte {
	need := len(s) + extra
	out := make([]byte, len(s), need+need/slack+16)
	copy(out, s)
	return out
}

// Patch is one column of a Table.Extend result against its parent's: the
// column it reads as (not yet placed in an image), the parent rows whose code
// changes (at, to codes) and the new rows' codes (tail).
type Patch struct {
	col   *Column
	at    []int32
	codes []uint32
	tail  []uint32
}

// Extend returns the patch that continues c with the rows of tail and
// replaces the code of row at[i] by codes[i], under like's dictionary, which
// must share c's lineage and cover every code of the result (c itself, or a
// later extension of its dictionary).
func (c *Column) Extend(like *Column, at []int32, codes []uint32, tail []uint32) Patch {
	if !c.SharesDict(like) {
		panic(fmt.Sprintf("table: extending column %q under an unrelated dictionary", c.def.Name))
	}
	out := c.like("", len(at) == 0) // c's rows are a prefix
	out.dict, out.rowOrder = like.dict, false
	return Patch{col: out, at: at, codes: codes, tail: tail}
}

// ExtendMeasure returns the patch that continues c, a measure column, as the
// measure column over vals (taken over: one value per result row, NULL rows
// zero): rows [0, c.Len()) keep c's NULLs but for the revived rows, and row
// c.Len()+i holds a value iff valid[i]. The result is in row order; a c that
// is not (see InRowOrder) has the rows whose code differs rewritten.
func ExtendMeasure[T int64 | float64](c *Column, vals []T, revived []int32, valid []bool) Patch {
	n := c.Len()
	if len(vals) != n+len(valid) {
		panic(fmt.Sprintf("table: measure extension of %q has %d values for %d+%d rows", c.def.Name, len(vals), n, len(valid)))
	}
	tail := make([]uint32, len(valid))
	for i, ok := range valid {
		if ok {
			tail[i] = uint32(n + i + 1)
		} else {
			vals[n+i] = 0
		}
	}
	var at []int32
	if !c.rowOrder {
		v := c.View()
		for r := range n {
			if code := v.At(r); code != nullCode && code != uint32(r+1) {
				at = append(at, int32(r))
			}
		}
	}
	at = append(at, revived...)
	codes := make([]uint32, len(at))
	for i, r := range at {
		codes[i] = uint32(r + 1)
	}
	d := newMeasureDict(vals)
	res := &Column{def: ColumnDef{Name: c.def.Name, Typ: d.typ}, dict: d, rowOrder: true}
	if len(at) == 0 {
		res.nullScan.Store(c.nullScan.Load()) // c's rows are a prefix
	}
	return Patch{col: res, at: at, codes: codes, tail: tail}
}

// InRowOrder reports whether c is a measure column whose value slice is in
// row order: row r is NULL or has code r+1, so NumericDict's element r is row
// r's value (zero where NULL). AddMeasure and ExtendMeasure build such
// columns; gathered and Builder.Like copies of them are not.
func (c *Column) InRowOrder() bool { return c.rowOrder }

// NumericRows returns a fresh slice holding the value of every row of c, a
// numeric column — NULL rows as zero — followed by tail: one copy of the
// value slice when c is in row order, a decode by code otherwise. T must be
// int64 for TInt64 and TDate columns and float64 for TFloat64 ones.
func NumericRows[T int64 | float64](c *Column, tail []T) []T {
	ints, floats := c.NumericDict()
	var src []T
	switch v := any(&src).(type) {
	case *[]int64:
		*v = ints
	case *[]float64:
		*v = floats
	}
	if src == nil && c.DictSize() > 0 {
		panic(fmt.Sprintf("table: NumericRows of %s column %q into the wrong value type", c.def.Typ, c.def.Name))
	}
	n := c.Len()
	if c.rowOrder && len(tail) > 0 {
		return append(src[:n:n], tail...) // capacity n: the append copies
	}
	if c.rowOrder {
		return slices.Clone(src[:n])
	}
	out := make([]T, n, n+len(tail))
	v := c.View()
	for r := range out {
		if code := v.At(r); code != nullCode {
			out[r] = src[code-1]
		}
	}
	return append(out, tail...)
}

// Extend returns the table name whose column i is t's column i continued by
// cols[i] (see Column.Extend and ExtendMeasure): t's rows, changed at most at
// touched (ascending), then the new ones. When no code of t's rows changes
// the image extends t's like Append's; otherwise it is copied once and
// patched, never rebuilt. Extended reports t's row count and touched, so
// whatever was derived from t can be updated for those rows alone.
func (t *Table) Extend(name string, cols []Patch, touched []int32) *Table {
	if len(cols) != len(t.cols) {
		panic(fmt.Sprintf("table %q: extension has %d columns, want %d", t.name, len(cols), len(t.cols)))
	}
	extra := 0
	if len(cols) > 0 {
		extra = len(cols[0].tail)
	}
	stride := t.img.stride
	tail := make([]byte, extra*stride)
	patched := false
	out := make([]*Column, len(cols))
	for j, p := range cols {
		if len(p.tail) != extra || p.col.def.Name != t.cols[j].def.Name {
			panic(fmt.Sprintf("table %q: extension column %d is %q with %d new rows, want %q with %d",
				t.name, j, p.col.def.Name, len(p.tail), t.cols[j].def.Name, extra))
		}
		for i, code := range p.tail {
			binary.LittleEndian.PutUint32(tail[i*stride+4*j:], code)
		}
		patched = patched || len(p.at) > 0
		out[j] = p.col
	}
	img := t.img
	if patched {
		img = &image{data: grown(t.img.data, len(tail), resultSlack), stride: stride}
		for j, p := range cols {
			for i, r := range p.at {
				binary.LittleEndian.PutUint32(img.data[int(r)*stride+4*j:], p.codes[i])
			}
		}
	}
	res := newTable(name, out, extendImage(img, tail, resultSlack), t.nrows+extra)
	res.prefix, res.touched = t.nrows, touched
	return res
}

// Extended reports how t was built by Extend: prefix is its parent's row
// count and touched the parent rows that may differ. Both are zero for a
// table Extend did not build, whose rows are then all new.
func (t *Table) Extended() (prefix int, touched []int32) { return t.prefix, t.touched }
