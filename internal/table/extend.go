package table

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
)

// frontier is the write frontier of a backing array that successive views
// share: end is the length of the longest view any extension has claimed.
// A view extends in place only when it ends exactly at the frontier — it is
// the newest view of its backing, so nothing has been written past it — and
// the claim moves the frontier before the write. Any other extension copies.
// This enforces the newest-snapshot-only rule Append documents: a second
// child of one parent, or the child of a roll that was thrown away, gets its
// own backing instead of writing over a sibling's tail.
type frontier struct{ end atomic.Int64 }

func newFrontier(n int) *frontier {
	f := &frontier{}
	f.end.Store(int64(n))
	return f
}

// extendShared returns s followed by extra, and the frontier of the result's
// backing. The result shares s's backing, extra written into its spare
// capacity, when s ends at fr's frontier and the capacity holds extra;
// otherwise extra goes after a copy of s in a fresh backing with 1/slack of
// headroom (see grown). Views of s never see the write: it lands past their
// length.
func extendShared[T any](s []T, fr *frontier, extra []T, slack int) ([]T, *frontier) {
	n := len(s)
	if len(extra) == 0 {
		return s, fr
	}
	if n+len(extra) <= cap(s) && fr.end.CompareAndSwap(int64(n), int64(n+len(extra))) {
		out := s[:n+len(extra)]
		copy(out[n:], extra)
		return out, fr
	}
	out := append(grown(s, len(extra), slack), extra...)
	return out, newFrontier(len(out))
}

// Headroom divisors for grown. A cached result is charged its spare
// capacity (see Table.MemSize) and gains a few groups an append, so its
// copies keep a sixteenth; a base snapshot gains a whole delta an append and
// is charged nothing, so its copies keep a quarter and recur less often.
const (
	resultSlack   = 16
	snapshotSlack = 4
)

// grown copies s into a fresh backing with room for extra more elements and
// 1/slack of headroom, so a lineage that keeps extending re-copies its
// backing once per that much growth.
func grown[T any](s []T, extra, slack int) []T {
	need := len(s) + extra
	out := make([]T, len(s), need+need/slack+16)
	copy(out, s)
	return out
}

// frontier returns the write frontier of c's code backing, installing one at
// c's length when c has none: a column that was built rather than extended
// is the only view of its backing that can extend it (a DeltaView's capped
// slice has no spare capacity to write into).
func (c *Column) frontier() *frontier {
	if f := c.back.Load(); f != nil {
		return f
	}
	c.back.CompareAndSwap(nil, newFrontier(len(c.codes)))
	return c.back.Load()
}

// Extend returns a column over c's rows followed by extra, with the code of
// row at[i] replaced by codes[i], under like's dictionary, which must share
// c's lineage and cover every code of the result (c itself, or a later
// extension of its dictionary). Without replacements the result shares c's
// code backing and writes extra past c's length where c is the newest view
// of it (see frontier); a replacement copies the codes once. Either way c
// reads exactly as before.
func (c *Column) Extend(like *Column, at []int32, codes []uint32, extra []uint32) *Column {
	if !c.SharesDict(like) {
		panic(fmt.Sprintf("table: extending column %q under an unrelated dictionary", c.def.Name))
	}
	out := &Column{def: c.def, dict: like.dict}
	if len(at) == 0 {
		var fr *frontier
		out.codes, fr = extendShared(c.codes, c.frontier(), extra, resultSlack)
		out.back.Store(fr)
		out.nullScan.Store(c.nullScan.Load()) // c's rows are a prefix
		return out
	}
	out.codes = append(grown(c.codes, len(extra), resultSlack), extra...)
	for i, r := range at {
		out.codes[r] = codes[i]
	}
	return out
}

// ExtendMeasure returns the measure column over vals (taken over: one value
// per row of the result, NULL rows zero) that extends c, a measure column,
// the way Extend does: rows [0, c.Len()) keep c's NULLs except the revived
// rows, which now hold a value, and row c.Len()+i holds a value iff valid[i].
// When c is in row order (see InRowOrder) and nothing is revived, the codes
// share c's backing like Extend's; a revival copies them once. A c not in row
// order has its codes rebuilt once; the result is always in row order.
func ExtendMeasure[T int64 | float64](c *Column, vals []T, revived []int32, valid []bool) *Column {
	n := c.Len()
	if len(vals) != n+len(valid) {
		panic(fmt.Sprintf("table: measure extension of %q has %d values for %d+%d rows", c.def.Name, len(vals), n, len(valid)))
	}
	extra := make([]uint32, len(valid))
	for i, ok := range valid {
		if ok {
			extra[i] = uint32(n + i + 1)
		} else {
			vals[n+i] = 0
		}
	}
	res := &Column{dict: newMeasureDict(vals), rowOrder: true}
	res.def = ColumnDef{Name: c.def.Name, Typ: res.dict.typ}
	switch {
	case c.rowOrder && len(revived) == 0:
		var fr *frontier
		res.codes, fr = extendShared(c.codes, c.frontier(), extra, resultSlack)
		res.back.Store(fr)
		res.nullScan.Store(c.nullScan.Load()) // c's rows are a prefix
		return res
	case c.rowOrder:
		res.codes = append(grown(c.codes, len(extra), resultSlack), extra...)
	default:
		res.codes = make([]uint32, n, n+len(extra))
		for r, code := range c.codes {
			if code != nullCode {
				res.codes[r] = uint32(r + 1)
			}
		}
		res.codes = append(res.codes, extra...)
	}
	for _, r := range revived {
		res.codes[r] = uint32(r + 1)
	}
	return res
}

// InRowOrder reports whether c is a measure column whose value slice is in
// row order: row r is NULL or has code r+1, so NumericDict's element r is row
// r's value (zero where NULL). MeasureColumn and ExtendMeasure build such
// columns; gathered and EmptyLike copies of them are not.
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
	n := len(c.codes)
	if c.rowOrder && len(tail) > 0 {
		return append(src[:n:n], tail...) // capacity n: the append copies
	}
	if c.rowOrder {
		return slices.Clone(src[:n])
	}
	out := make([]T, n, n+len(tail))
	for r, code := range c.codes {
		if code != nullCode {
			out[r] = src[code-1]
		}
	}
	return append(out, tail...)
}

// Extend returns the table name over cols, each the extension of t's column
// at the same ordinal (see Column.Extend and ExtendMeasure): rows [0,
// t.NumRows()) are t's except possibly at the rows in touched (ascending),
// and the rest are new. A scan image t has built carries over the same way:
// shared and extended past t's when no touched row changed a code, else
// copied once with those rows re-packed — never re-packed whole. The result
// reports t's row count and touched through Extended, so whatever was
// derived from t's rows can be updated for the touched and new rows alone.
func (t *Table) Extend(name string, cols []*Column, touched []int32) *Table {
	if len(cols) != len(t.cols) {
		panic(fmt.Sprintf("table %q: extension has %d columns, want %d", t.name, len(cols), len(t.cols)))
	}
	out := &Table{name: name, cols: cols, byIdx: t.byIdx, prefix: t.nrows, touched: touched, img: &imgState{}, serial: serials.Add(1)}
	if len(cols) > 0 {
		out.nrows = cols[0].Len()
	}
	for i, c := range cols {
		if c.Len() != out.nrows || c.def.Name != t.cols[i].def.Name || out.nrows < t.nrows {
			panic(fmt.Sprintf("table %q: extension column %d is %q with %d rows, want %q with %d ≥ %d",
				t.name, i, c.def.Name, c.Len(), t.cols[i].def.Name, out.nrows, t.nrows))
		}
	}

	t.img.mu.Lock()
	defer t.img.mu.Unlock()
	if t.img.data == nil {
		return out
	}
	tail := packRows(cols, t.nrows, out.nrows)
	var changed []int32
	for _, r := range touched {
		for j, c := range cols {
			if c.codes[r] != t.cols[j].codes[r] {
				changed = append(changed, r)
				break
			}
		}
	}
	if len(changed) == 0 {
		out.img.data, out.img.fr = extendShared(t.img.data, t.img.frontier(), tail, resultSlack)
		return out
	}
	img := append(grown(t.img.data, len(tail), resultSlack), tail...)
	stride := 4 * len(cols)
	for _, r := range changed {
		row := img[int(r)*stride:]
		for j, c := range cols {
			binary.LittleEndian.PutUint32(row[4*j:], c.codes[r])
		}
	}
	out.img.data, out.img.fr = img, newFrontier(len(img))
	return out
}

// Extended reports how t was built by Extend: prefix is its parent's row
// count and touched the parent rows that may differ. Both are zero for a
// table Extend did not build, whose rows are then all new.
func (t *Table) Extended() (prefix int, touched []int32) { return t.prefix, t.touched }

// frontier returns the write frontier of the image backing, installing one
// at the image's length when it has none. Callers hold s.mu.
func (s *imgState) frontier() *frontier {
	if s.fr == nil {
		s.fr = newFrontier(len(s.data))
	}
	return s.fr
}
