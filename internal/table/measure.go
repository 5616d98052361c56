package table

import (
	"fmt"
	"slices"
)

// MeasureColumn builds an immutable measure column over vals in row order —
// the column form of aggregate results. Its dictionary is the identity: the
// value slice IS vals, row i has code i+1, and a row whose valid entry is
// false is NULL (code 0, its vals slot zeroed so equal columns have equal
// bytes). valid may be nil when no row is NULL; otherwise it must be as long
// as vals. The column takes ownership of vals and builds no lookup map, so
// emission costs one code per row and no hashing.
//
// Equal values do not share a code in a measure column, which breaks the
// rule grouping, indexing, statistics and snapshots rely on; the catalog
// therefore re-interns measure columns on registration (see InternMeasures).
// Append on a measure column panics, and DictSize equals the row count.
func MeasureColumn[T int64 | float64](name string, vals []T, valid []bool) *Column {
	if valid != nil && len(valid) != len(vals) {
		panic(fmt.Sprintf("table: measure column %q has %d values and %d validity flags", name, len(vals), len(valid)))
	}
	codes := make([]uint32, len(vals))
	for i := range codes {
		codes[i] = uint32(i + 1)
	}
	for i, ok := range valid {
		if !ok {
			codes[i], vals[i] = nullCode, 0
		}
	}
	d := &dict{measure: true}
	d.root = d
	switch v := any(vals).(type) {
	case []int64:
		d.typ, d.ints = TInt64, v
	case []float64:
		d.typ, d.floats = TFloat64, v
	}
	return &Column{def: ColumnDef{Name: name, Typ: d.typ}, codes: codes, dict: d}
}

// Measure reports whether c's dictionary is a measure column's identity
// dictionary. Gathered and EmptyLike copies of a measure column share it and
// report true too, though their codes are no longer in row order.
func (c *Column) Measure() bool { return c.dict.measure }

// SharesDict reports whether c and o encode values under one dictionary
// lineage — the same dictionary, or append extensions of it — so a code
// means the same value in both, and the larger of the two dictionaries
// decodes every code of either.
func (c *Column) SharesDict(o *Column) bool { return c.dict.root == o.dict.root }

// InternMeasures returns t itself when it holds no measure column, and
// otherwise a copy whose measure columns are re-encoded into ordinary
// interned dictionaries, so equal values share a code again.
func (t *Table) InternMeasures() *Table {
	var cols []*Column
	for i, c := range t.cols {
		if !c.dict.measure {
			continue
		}
		if cols == nil {
			cols = slices.Clone(t.cols)
		}
		out := NewColumn(c.def)
		out.codes = make([]uint32, len(c.codes))
		for r, code := range c.codes {
			out.codes[r] = out.dict.code(c.dict.value(code))
		}
		cols[i] = out
	}
	if cols == nil {
		return t
	}
	return FromColumns(t.name, cols)
}
