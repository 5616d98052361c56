// Package table implements the storage substrate of the engine: each table
// is one row-major image of dictionary codes. Cell (r, c) is a uint32 code
// into column c's dictionary (0 is NULL), the little-endian word at
// r*stride+4*c of the image (see RowImage), its only copy: a Column is a view
// of one word of every row, and every constructor writes the image directly.
// Group-by operators in internal/exec scan uniform code tuples, paying for
// row width as the paper's row store did, and derived tables share their
// parents' dictionaries, so materializing an intermediate Group By result is
// cheap — the property the paper's plans depend on. Aggregate results are
// the one kind of column whose dictionary is not interned (see AddMeasure).
package table

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"gbmqo/internal/colset"
)

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Typ  Type
}

// image is a table's row-major code store: row r's codes are the stride
// bytes at r*stride, one little-endian uint32 per column in ordinal order.
// An image is written only while its table is being built; a published one
// is read-only, and an extension writes past its length (see extendImage).
type image struct {
	data   []byte
	stride int
	// back is the write frontier of data's backing, shared with the images
	// that extend it (see Table.Extend); nil until the image first extends.
	back atomic.Pointer[frontier]
}

// frontier returns the write frontier of the image's backing, installing
// one at the image's length when it has none: an image that was built
// rather than extended is the only view of its backing that can extend it (a
// DeltaView's capped slice has no spare capacity to write into).
func (m *image) frontier() *frontier {
	if f := m.back.Load(); f != nil {
		return f
	}
	m.back.CompareAndSwap(nil, newFrontier(len(m.data)))
	return m.back.Load()
}

// Column is one dictionary-encoded column: a view of one word of every row
// of its table's image. It is read-only once its table is built.
type Column struct {
	def  ColumnDef
	dict *dict
	img  *image
	off  int // byte offset of the column's word within a row

	// nullScan memoises HasNull as rows scanned << 1 | NULL seen.
	nullScan atomic.Uint64
	// rowOrder marks a measure column in row order (see InRowOrder).
	rowOrder bool
}

// Def returns the column definition.
func (c *Column) Def() ColumnDef { return c.def }

// Name returns the column name.
func (c *Column) Name() string { return c.def.Name }

// Type returns the column type.
func (c *Column) Type() Type { return c.def.Typ }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.img.data) / c.img.stride }

// Code returns the dictionary code of row i (0 for NULL).
func (c *Column) Code(i int) uint32 {
	return binary.LittleEndian.Uint32(c.img.data[i*c.img.stride+c.off:])
}

// View returns a strided reader of the column's codes in the image.
func (c *Column) View() CodeView {
	return CodeView{img: c.img.data, stride: c.img.stride, off: c.off}
}

// CodeView reads one column's codes in place from its table's row-major
// image: row r's code is the little-endian word at r*stride+off. It is a
// value, so a loop over it keeps the image, stride and offset in registers.
type CodeView struct {
	img         []byte
	stride, off int
}

// At returns the code of row r.
func (v CodeView) At(r int) uint32 {
	return binary.LittleEndian.Uint32(v.img[r*v.stride+v.off:])
}

// Gather returns every code in row order, contiguous: the one-off copy for
// a reader that needs them so.
func (v CodeView) Gather() []uint32 {
	out := make([]uint32, 0, len(v.img)/v.stride)
	for p := v.off; p < len(v.img); p += v.stride {
		out = append(out, binary.LittleEndian.Uint32(v.img[p:]))
	}
	return out
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.Code(i) == nullCode }

// Value decodes row i.
func (c *Column) Value(i int) Value { return c.dict.value(c.Code(i)) }

// Decode decodes an arbitrary code from this column's dictionary.
func (c *Column) Decode(code uint32) Value { return c.dict.value(code) }

// checkValue panics unless v may be interned into c: a type mismatch or a
// measure column (see AddMeasure) is always a caller bug.
func (c *Column) checkValue(v Value) {
	if c.dict.measure {
		panic(fmt.Sprintf("table: Append to measure column %q, which is immutable", c.def.Name))
	}
	if !v.Null && v.Typ != c.def.Typ {
		panic(fmt.Sprintf("table: appending %s value to %s column %q", v.Typ, c.def.Typ, c.def.Name))
	}
}

// Ranks returns the code→rank table for order-by-value sorting (NULL ranks
// first).
func (c *Column) Ranks() []uint32 { return c.dict.ranks() }

// DictSize returns the number of distinct non-null values interned in the
// dictionary. For a base column this equals the column's exact NDV; for a
// gathered column it is an upper bound.
func (c *Column) DictSize() int { return c.dict.size() }

// HasNull reports whether any row is NULL. The answer is memoised by the
// number of rows it covers, and columns only grow, so the scan is paid once
// per column and then only over rows appended since (an appended snapshot
// starts from its parent's answer).
func (c *Column) HasNull() bool {
	m, n := c.nullScan.Load(), c.Len()
	if m&1 == 1 || int(m>>1) == n {
		return m&1 == 1
	}
	v, found := c.View(), false
	for r := int(m >> 1); r < n && !found; r++ {
		found = v.At(r) == nullCode
	}
	m = uint64(n) << 1
	if found {
		m |= 1
	}
	c.nullScan.Store(m)
	return found
}

// DenseBound is the largest key space a group-by over rows input rows counts
// in a flat array indexed by key rather than a hash table: any space up to
// 4096 slots (a few KB), else up to 8× the rows — an array that size still
// costs less to allocate and walk than hashing every row. The exec chooser
// admits its dense key mode and the statistics sampler its dense count path
// by this one bound; DenseBound(0) is the floor.
func DenseBound(rows int) int { return max(4096, 8*rows) }

// DistinctCount computes the exact number of distinct values present in the
// column (counting NULL as one value if present). It is O(rows) and intended
// for tests and exact statistics, not the hot path.
func (c *Column) DistinctCount() int {
	seen := make([]bool, c.dict.size()+1)
	v, n := c.View(), 0
	for r := range c.Len() {
		if code := v.At(r); !seen[code] {
			seen[code] = true
			n++
		}
	}
	return n
}

// AvgWidth returns the average width in bytes of one value.
func (c *Column) AvgWidth() float64 { return c.dict.avgWidth() }

// NumericDict returns the dictionary's value slice of a TInt64, TDate or
// TFloat64 column, uncopied: the value of non-null code k is element k-1 of
// the slice matching the column type (the other is nil). For a measure column
// (see AddMeasure) it is the column's data in row order. Aggregation hot
// loops decode through it to avoid per-row Value construction; callers must
// not mutate it. It panics on TString columns.
func (c *Column) NumericDict() (ints []int64, floats []float64) {
	if c.def.Typ == TString {
		panic(fmt.Sprintf("table: NumericDict on %s column %q", c.def.Typ, c.def.Name))
	}
	return c.dict.ints, c.dict.floats
}

// Table is a named collection of equal-length columns over one row-major
// code image.
type Table struct {
	name  string
	cols  []*Column
	byIdx map[string]int
	nrows int
	img   *image

	// deltaStart is the append watermark: rows [deltaStart, nrows) arrived in
	// the Append call that produced this snapshot (0 for tables not produced
	// by Append). See DeltaView.
	deltaStart int

	// prefix and touched record how Extend built this table (see Extended).
	prefix  int
	touched []int32

	serial uint64 // see Serial
}

// serials numbers Table values as they are built.
var serials atomic.Uint64

// Serial identifies this Table value: no two tables built in one process
// share it, so a snapshot can be recognized later without being kept alive.
func (t *Table) Serial() uint64 { return t.serial }

// New creates an empty table with the given schema. Column names must be
// unique and non-empty.
func New(name string, defs []ColumnDef) *Table {
	cols := make([]*Column, len(defs))
	for i, d := range defs {
		cols[i] = &Column{def: d, dict: newDict(d.Typ)}
	}
	return newTable(name, cols, &image{stride: 4 * len(defs)}, 0)
}

// newTable assembles the table name over img from cols, which it points at
// their words of img in ordinal order. Column names must be unique and
// non-empty.
func newTable(name string, cols []*Column, img *image, nrows int) *Table {
	t := &Table{name: name, cols: cols, byIdx: make(map[string]int, len(cols)), nrows: nrows, img: img, serial: serials.Add(1)}
	for i, c := range cols {
		if c.def.Name == "" {
			panic(fmt.Sprintf("table %q: column %d has empty name", name, i))
		}
		if _, dup := t.byIdx[c.def.Name]; dup {
			panic(fmt.Sprintf("table %q: duplicate column %q", name, c.def.Name))
		}
		t.byIdx[c.def.Name] = i
		c.img, c.off = img, 4*i
	}
	return t
}

// like returns an unplaced column with c's definition (renamed to name when
// not empty) and dictionary; inOrder says the new image holds c's rows in
// order, so row order and the NULL memo carry over.
func (c *Column) like(name string, inOrder bool) *Column {
	out := &Column{def: c.def, dict: c.dict}
	if name != "" {
		out.def.Name = name
	}
	if inOrder {
		out.rowOrder = c.rowOrder
		out.nullScan.Store(c.nullScan.Load())
	}
	return out
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rename returns the same table under a different name (shallow; columns are
// shared). Used when materializing temp tables.
func (t *Table) Rename(name string) *Table {
	out := *t
	out.name, out.serial = name, serials.Add(1)
	return &out
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Col returns column i.
func (t *Table) Col(i int) *Column { return t.cols[i] }

// ColIndex returns the ordinal of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.byIdx[name]; ok {
		return i
	}
	return -1
}

// ColByName returns the named column or nil.
func (t *Table) ColByName(name string) *Column {
	if i := t.ColIndex(name); i >= 0 {
		return t.cols[i]
	}
	return nil
}

// Defs returns the schema as a fresh slice.
func (t *Table) Defs() []ColumnDef {
	out := make([]ColumnDef, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.def
	}
	return out
}

// ColNames returns the column names in ordinal order.
func (t *Table) ColNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name()
	}
	return out
}

// AppendRow appends one row; vals must match the schema arity.
func (t *Table) AppendRow(vals ...Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("table %q: AppendRow got %d values, want %d", t.name, len(vals), len(t.cols)))
	}
	for i, v := range vals {
		t.cols[i].checkValue(v)
	}
	img := t.img
	n := len(img.data)
	img.data = slices.Grow(img.data, img.stride)[:n+img.stride]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(img.data[n+4*i:], t.cols[i].dict.code(v))
	}
	t.nrows++
}

// Grow reserves image capacity for rows more rows, so a builder that knows
// its row count appends them without regrowing the image.
func (t *Table) Grow(rows int) {
	t.img.data = slices.Grow(t.img.data, rows*t.img.stride)
}

// Row decodes row i (convenience for tests and display).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}

// Gather builds a new table containing rows idx in order, sharing
// dictionaries with this table: each row's bytes are copied whole.
func (t *Table) Gather(name string, idx []int32) *Table {
	stride := t.img.stride
	data := make([]byte, len(idx)*stride)
	for i, r := range idx {
		copy(data[i*stride:(i+1)*stride], t.img.data[int(r)*stride:])
	}
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.like("", false)
	}
	return newTable(name, cols, &image{data: data, stride: stride}, len(idx))
}

// Project builds a new table with only the given column ordinals, sharing
// their dictionaries. Its image holds those columns alone, so a narrow
// projection scans narrow.
func (t *Table) Project(name string, ords []int) *Table {
	b := NewBuilder(name, t.nrows, len(ords))
	for _, o := range ords {
		b.Copy(t.cols[o], "")
	}
	return b.Table()
}

// RowImage returns the table's row-major code image — one little-endian
// uint32 code per column per row — and its row stride: the only copy of the
// codes, written when the table was built, so asking for it allocates
// nothing. Scanning operators read key codes through it, so touching any
// column of a row pulls the whole row through the cache and scan cost grows
// with table *width*, as in the paper's row store: a narrow Group By computed
// from a narrow materialized intermediate is much cheaper than from the wide
// base relation.
func (t *Table) RowImage() (image []byte, stride int) {
	return t.img.data, t.img.stride
}

// WidthBytes returns the average row width in bytes over the given column
// set, the quantity the optimizer cost model charges scans and writes for.
// An empty set means all columns.
func (t *Table) WidthBytes(set colset.Set) float64 {
	w := 0.0
	if set.IsEmpty() {
		for _, c := range t.cols {
			w += c.AvgWidth()
		}
		return w
	}
	set.ForEach(func(i int) {
		if i < len(t.cols) {
			w += t.cols[i].AvgWidth()
		}
	})
	return w
}

// SizeBytes estimates total storage of the table: rows × average row width.
func (t *Table) SizeBytes() float64 {
	return float64(t.nrows) * t.WidthBytes(colset.Set(0))
}

// MemSize returns the resident bytes of the table's codes: its image at its
// capacity, spare room included. A MemBudget is charged it for a temp, and
// the result cache for an entry. Dictionaries are excluded: derived tables
// share them with their parent, and a measure column's value slice (see
// AddMeasure) is not counted either.
func (t *Table) MemSize() int64 { return int64(cap(t.img.data)) }

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("%s(%d cols, %d rows)", t.name, len(t.cols), t.nrows)
}
