package table

import "slices"

// newMeasureDict builds the identity dictionary over vals (see
// AddMeasure).
func newMeasureDict[T int64 | float64](vals []T) *dict {
	d := &dict{measure: true}
	d.root = d
	switch v := any(vals).(type) {
	case []int64:
		d.typ, d.ints = TInt64, v
	case []float64:
		d.typ, d.floats = TFloat64, v
	}
	return d
}

// Measure reports whether c's dictionary is a measure column's identity
// dictionary. Gathered and Builder.Like copies of a measure column share it
// and report true too, though their codes are no longer in row order.
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
	if !slices.ContainsFunc(t.cols, func(c *Column) bool { return c.dict.measure }) {
		return t
	}
	b := NewBuilder(t.name, t.nrows, len(t.cols))
	for _, c := range t.cols {
		if !c.dict.measure {
			b.Copy(c, "")
			continue
		}
		i := b.Add(c.def)
		for r := range t.nrows {
			b.SetValue(r, i, c.Value(r))
		}
	}
	return b.Table()
}
