// Package table implements the columnar storage substrate of the engine.
//
// Every column is dictionary-encoded: cell i of a column is a uint32 code into
// a per-column dictionary, with code 0 reserved for NULL. Group-by operators
// in internal/exec therefore work on uniform code tuples regardless of column
// types, and derived tables produced by gathering rows share their parents'
// dictionaries, making materialization of intermediate Group By results cheap
// — the property the paper's plans depend on. Aggregate results are the one
// kind of column whose dictionary is not interned (see MeasureColumn).
package table

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gbmqo/internal/colset"
)

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Typ  Type
}

// Column is one dictionary-encoded column. Columns are append-only while a
// table is being built and immutable afterwards.
type Column struct {
	def   ColumnDef
	codes []uint32
	dict  *dict

	// nullScan memoises HasNull as rows scanned << 1 | NULL seen.
	nullScan atomic.Uint64
	// back is the write frontier of the code backing, shared with the views
	// that extend it (see Extend); nil until the column is first extended.
	back atomic.Pointer[frontier]
	// rowOrder marks a measure column in row order (see InRowOrder).
	rowOrder bool
}

// NewColumn creates an empty column.
func NewColumn(def ColumnDef) *Column {
	return &Column{def: def, dict: newDict(def.Typ)}
}

// Def returns the column definition.
func (c *Column) Def() ColumnDef { return c.def }

// Name returns the column name.
func (c *Column) Name() string { return c.def.Name }

// Type returns the column type.
func (c *Column) Type() Type { return c.def.Typ }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.codes) }

// Code returns the dictionary code of row i (0 for NULL).
func (c *Column) Code(i int) uint32 { return c.codes[i] }

// Codes exposes the raw code vector. Callers must not mutate it.
func (c *Column) Codes() []uint32 { return c.codes }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.codes[i] == nullCode }

// Value decodes row i.
func (c *Column) Value(i int) Value { return c.dict.value(c.codes[i]) }

// Decode decodes an arbitrary code from this column's dictionary.
func (c *Column) Decode(code uint32) Value { return c.dict.value(code) }

// Append interns v and appends it. It panics on a type mismatch or on a
// measure column (see MeasureColumn), both always caller bugs.
func (c *Column) Append(v Value) {
	if c.dict.measure {
		panic(fmt.Sprintf("table: Append to measure column %q, which is immutable", c.def.Name))
	}
	if !v.Null && v.Typ != c.def.Typ {
		panic(fmt.Sprintf("table: appending %s value to %s column %q", v.Typ, c.def.Typ, c.def.Name))
	}
	c.codes = append(c.codes, c.dict.code(v))
}

// AppendCode appends a raw code that must already belong to this column's
// dictionary (used by operators that copy rows between tables sharing a dict).
func (c *Column) AppendCode(code uint32) { c.codes = append(c.codes, code) }

// AppendCodes bulk-appends raw codes that must already belong to this
// column's dictionary, instead of per-row AppendCode calls.
func (c *Column) AppendCodes(codes []uint32) { c.codes = append(c.codes, codes...) }

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
	m := c.nullScan.Load()
	if m&1 == 1 || int(m>>1) == len(c.codes) {
		return m&1 == 1
	}
	found := slices.Contains(c.codes[m>>1:], nullCode)
	m = uint64(len(c.codes)) << 1
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
	n := 0
	for _, code := range c.codes {
		if !seen[code] {
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
// (see MeasureColumn) it is the column's data in row order. Aggregation hot
// loops decode through it to avoid per-row Value construction; callers must
// not mutate it. It panics on TString columns.
func (c *Column) NumericDict() (ints []int64, floats []float64) {
	if c.def.Typ == TString {
		panic(fmt.Sprintf("table: NumericDict on %s column %q", c.def.Typ, c.def.Name))
	}
	return c.dict.ints, c.dict.floats
}

// EmptyLike creates an empty column under a new name that shares this
// column's dictionary, so codes can be copied across with AppendCode. This is
// how group-by operators emit key columns without re-interning values.
func (c *Column) EmptyLike(name string) *Column {
	def := c.def
	def.Name = name
	return &Column{def: def, dict: c.dict}
}

// Like is EmptyLike holding codes, which the column takes over: they must
// belong to this column's dictionary and not be written afterwards.
func (c *Column) Like(name string, codes []uint32) *Column {
	out := c.EmptyLike(name)
	out.codes = codes
	return out
}

// EmptyLikeExtended is EmptyLike over an extended view of the dictionary: the
// backing value arrays and lookup maps stay shared (existing codes remain
// valid and comparable) but the rank table is recomputed on demand over the
// grown code range. Use it instead of EmptyLike when the new column will
// intern values that a rank table already built for the source column would
// not cover — the append path's shard-partition extension does this for the
// hidden row column.
func (c *Column) EmptyLikeExtended(name string) *Column {
	def := c.def
	def.Name = name
	return &Column{def: def, dict: c.dict.extend()}
}

// gather builds a new column containing rows idx, sharing this column's
// dictionary.
func (c *Column) gather(idx []int32) *Column {
	out := &Column{def: c.def, dict: c.dict, codes: make([]uint32, len(idx))}
	for i, r := range idx {
		out.codes[i] = c.codes[r]
	}
	return out
}

// imgState holds a table's lazily built scan image behind its own lock, as a
// separate allocation so Table values stay copyable (Rename) and so an
// appended snapshot can extend its parent's already-built image without
// racing a concurrent lazy build by a reader of the parent.
type imgState struct {
	mu   sync.Mutex
	data []byte
	fr   *frontier // write frontier of data's backing (see Table.Extend)
}

// Table is a named collection of equal-length columns.
type Table struct {
	name  string
	cols  []*Column
	byIdx map[string]int
	nrows int

	// deltaStart is the append watermark: rows [deltaStart, nrows) arrived in
	// the Append call that produced this snapshot (0 for tables not produced
	// by Append). See DeltaView.
	deltaStart int

	// prefix and touched record how Extend built this table (see Extended).
	prefix  int
	touched []int32

	// img is the packed row-major scan image (see RowImage), built lazily on
	// first scan.
	img *imgState

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
	t := &Table{name: name, byIdx: make(map[string]int, len(defs)), img: &imgState{}, serial: serials.Add(1)}
	for i, d := range defs {
		if d.Name == "" {
			panic(fmt.Sprintf("table %q: column %d has empty name", name, i))
		}
		if _, dup := t.byIdx[d.Name]; dup {
			panic(fmt.Sprintf("table %q: duplicate column %q", name, d.Name))
		}
		t.byIdx[d.Name] = i
		t.cols = append(t.cols, NewColumn(d))
	}
	return t
}

// FromColumns assembles a table from pre-built columns of equal length.
func FromColumns(name string, cols []*Column) *Table {
	t := &Table{name: name, byIdx: make(map[string]int, len(cols)), cols: cols, img: &imgState{}, serial: serials.Add(1)}
	for i, c := range cols {
		if _, dup := t.byIdx[c.Name()]; dup {
			panic(fmt.Sprintf("table %q: duplicate column %q", name, c.Name()))
		}
		t.byIdx[c.Name()] = i
		if c.Len() != cols[0].Len() {
			panic(fmt.Sprintf("table %q: column %q has %d rows, want %d", name, c.Name(), c.Len(), cols[0].Len()))
		}
	}
	if len(cols) > 0 {
		t.nrows = cols[0].Len()
	}
	return t
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
		t.cols[i].Append(v)
	}
	t.nrows++
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
// dictionaries with this table.
func (t *Table) Gather(name string, idx []int32) *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.gather(idx)
	}
	out := FromColumns(name, cols)
	return out
}

// Project builds a new table with only the given column ordinals (shallow:
// columns are shared, not copied).
func (t *Table) Project(name string, ords []int) *Table {
	cols := make([]*Column, len(ords))
	for i, o := range ords {
		cols[i] = t.cols[o]
	}
	return FromColumns(name, cols)
}

// RowImage returns the packed row-major code image of the table — 4 bytes
// (one little-endian uint32 code) per column per row — along with the row
// stride, building it on first use. Table-scanning operators read key codes
// through this image, which gives the storage engine row-store scan
// behaviour: touching any column of a row pulls the whole row's bytes through
// the cache, so scan cost grows with table *width*, exactly like the
// disk-based row store the paper evaluated on. This is what makes computing a
// narrow Group By from a narrow materialized intermediate much cheaper than
// from the wide base relation.
//
// The build is synchronized: concurrent readers of a shared table (cached
// entries, shard partitions, append snapshots) may all trigger the first
// scan, and exactly one of them builds the image.
func (t *Table) RowImage() (image []byte, stride int) {
	stride = 4 * len(t.cols)
	t.img.mu.Lock()
	defer t.img.mu.Unlock()
	if t.img.data == nil {
		t.img.data = packRows(t.cols, 0, t.nrows)
	}
	return t.img.data, stride
}

// packRows encodes rows [lo, hi) of cols into the packed row-major image
// form: one little-endian uint32 code per column per row.
func packRows(cols []*Column, lo, hi int) []byte {
	stride := 4 * len(cols)
	img := make([]byte, (hi-lo)*stride)
	for ci, c := range cols {
		off := 4 * ci
		for r := lo; r < hi; r++ {
			code := c.codes[r]
			p := (r-lo)*stride + off
			img[p] = byte(code)
			img[p+1] = byte(code >> 8)
			img[p+2] = byte(code >> 16)
			img[p+3] = byte(code >> 24)
		}
	}
	return img
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

// MemSize returns the actual resident bytes of the table's columnar state —
// the code arrays and, when it has been built, the row-major scan image, each
// at its capacity: a backing an extension shares (see Extend) holds its
// spare room whether or not a row lands in it yet. It is the quantity a
// MemBudget is charged when the engine materializes this table as a temp,
// and what the result cache charges an entry. Dictionaries are deliberately
// excluded: gathered and aggregated tables share them with their parent, so
// materializing an intermediate costs no extra dictionary memory. A measure
// column's dictionary (its value slice, see MeasureColumn) is owned by the
// table and is likewise not counted.
func (t *Table) MemSize() int64 {
	t.img.mu.Lock()
	n := int64(cap(t.img.data))
	t.img.mu.Unlock()
	for _, c := range t.cols {
		n += 4 * int64(cap(c.codes))
	}
	return n
}

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("%s(%d cols, %d rows)", t.name, len(t.cols), t.nrows)
}
