package table

import (
	"encoding/binary"
	"fmt"
)

// Builder writes a new table's image in place. NewBuilder fixes the row and
// column counts; the Add, Like and Copy methods and AddMeasure then declare
// the columns in ordinal order, each returning its ordinal, and Set and
// SetValue fill their codes (a cell never set reads NULL). Table publishes
// the result, after which the builder must not be used.
type Builder struct {
	name   string
	rows   int
	cols   []*Column
	img    *image
	data   []byte // img.data, held here so a write loads no pointer
	stride int
}

// NewBuilder starts the table name of rows rows and ncols columns.
func NewBuilder(name string, rows, ncols int) *Builder {
	img := &image{data: make([]byte, rows*4*ncols), stride: 4 * ncols}
	return &Builder{name: name, rows: rows, cols: make([]*Column, 0, ncols), img: img, data: img.data, stride: img.stride}
}

// add declares the next column.
func (b *Builder) add(c *Column) int {
	if len(b.cols) == cap(b.cols) {
		panic(fmt.Sprintf("table %q: builder declared more than %d columns", b.name, cap(b.cols)))
	}
	b.cols = append(b.cols, c)
	return len(b.cols) - 1
}

// Like declares a column named name that shares src's dictionary, so src's
// codes may be Set in it. This is how operators emit key columns without
// re-interning values.
func (b *Builder) Like(src *Column, name string) int { return b.add(src.like(name, false)) }

// LikeExtended is Like over an extended view of src's dictionary: the value
// arrays and lookup maps stay shared (src's codes remain valid and
// comparable), SetValue may intern new values, and the rank table covers the
// grown code range. The shard-partition extension uses it for the hidden row
// column.
func (b *Builder) LikeExtended(src *Column, name string) int {
	c := src.like(name, false)
	c.dict = src.dict.extend()
	return b.add(c)
}

// Copy declares a column named name (src's name when empty) holding src's
// codes row for row under src's dictionary; src must have the builder's row
// count. A measure column in row order stays in row order.
func (b *Builder) Copy(src *Column, name string) int {
	if src.Len() != b.rows {
		panic(fmt.Sprintf("table %q: copying column %q of %d rows into %d", b.name, src.Name(), src.Len(), b.rows))
	}
	c, v := b.add(src.like(name, true)), src.View()
	for r := range b.rows {
		b.Set(r, c, v.At(r))
	}
	return c
}

// Add declares a column with a fresh dictionary, filled by SetValue.
func (b *Builder) Add(def ColumnDef) int { return b.add(&Column{def: def, dict: newDict(def.Typ)}) }

// AddMeasure declares the immutable measure column name over vals in row
// order — the column form of aggregate results — and writes its codes. Its
// dictionary is the identity: the value slice IS vals, row i has code i+1,
// and a row whose valid entry is false is NULL (code 0, its vals slot zeroed
// so equal columns have equal bytes). valid may be nil when no row is NULL;
// otherwise it must be as long as vals, and vals as long as the builder's
// rows. The column takes ownership of vals and builds no lookup map, so
// emission costs one code per row and no hashing.
//
// Equal values do not share a code in a measure column, which breaks the
// rule grouping, indexing, statistics and snapshots rely on; the catalog
// therefore re-interns measure columns on registration (see InternMeasures).
// Interning into a measure column panics, and DictSize equals the row count.
func AddMeasure[T int64 | float64](b *Builder, name string, vals []T, valid []bool) int {
	if len(vals) != b.rows || valid != nil && len(valid) != len(vals) {
		panic(fmt.Sprintf("table: measure column %q has %d values and %d validity flags for %d rows", name, len(vals), len(valid), b.rows))
	}
	d := newMeasureDict(vals)
	c := b.add(&Column{def: ColumnDef{Name: name, Typ: d.typ}, dict: d, rowOrder: true})
	for r := range vals {
		if valid == nil || valid[r] {
			b.Set(r, c, uint32(r+1))
		} else {
			vals[r] = 0
		}
	}
	return c
}

// Set writes code as row r of column c; the code must belong to the
// column's dictionary.
func (b *Builder) Set(r, c int, code uint32) {
	binary.LittleEndian.PutUint32(b.data[r*b.stride+4*c:], code)
}

// SetValue interns v into column c's dictionary and writes its code as row
// r. It panics on a type mismatch or a measure column.
func (b *Builder) SetValue(r, c int, v Value) {
	col := b.cols[c]
	col.checkValue(v)
	b.Set(r, c, col.dict.code(v))
}

// Table publishes the built table. Every declared column must exist.
func (b *Builder) Table() *Table {
	if len(b.cols) != cap(b.cols) {
		panic(fmt.Sprintf("table %q: builder declared %d of %d columns", b.name, len(b.cols), cap(b.cols)))
	}
	t := newTable(b.name, b.cols, b.img, b.rows)
	*b = Builder{}
	return t
}
