package exec

import (
	"fmt"

	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// Filter returns the rows of t satisfying pred, as a new table sharing
// dictionaries with t.
func Filter(t *table.Table, outName string, pred func(row int) bool) *table.Table {
	var idx []int32
	for i := 0; i < t.NumRows(); i++ {
		if pred(i) {
			idx = append(idx, int32(i))
		}
	}
	return t.Gather(outName, idx)
}

// CmpPredicate builds a row predicate for `col op literal` with SQL NULL
// semantics (NULL never satisfies a comparison).
func CmpPredicate(t *table.Table, col int, op stats.CmpOp, lit table.Value) func(int) bool {
	c := t.Col(col)
	return func(row int) bool {
		v := c.Value(row)
		if v.Null || lit.Null {
			return false
		}
		return op.Eval(v, lit)
	}
}

// GrpTagCol is the name of the tag column UnionAllTagged adds (§5.1.1: "the
// notion of a Grp-Tag (i.e., a new column) with each tuple that denotes which
// Group By query it is a result of").
const GrpTagCol = "grp_tag"

// UnionAllTagged assembles the result set of a GROUPING SETS query: the
// output schema is outCols (the union of all grouping columns plus aggregate
// columns); each part contributes its own columns with NULL for grouping
// columns absent from its set, plus a Grp-Tag naming the part. The union is
// written column by column into one image: a column any part holds as a
// measure concatenates values into a measure column, any other column
// concatenates codes under the dictionary its parts share (or re-interns
// values when their dictionaries are unrelated), and the tag column interns
// one string per part. A parts/tags arity mismatch or a part column of the
// wrong type is a malformed request and returns an error.
func UnionAllTagged(outName string, outCols []table.ColumnDef, parts []*table.Table, tags []string) (*table.Table, error) {
	if len(parts) != len(tags) {
		return nil, fmt.Errorf("exec: union of %d parts with %d tags", len(parts), len(tags))
	}
	n := 0
	for _, part := range parts {
		n += part.NumRows()
	}
	b := table.NewBuilder(outName, n, len(outCols)+1)
	for _, def := range outCols {
		// Each part's column of the same name; nil = absent, emit NULL.
		srcs := make([]*table.Column, len(parts))
		measure := false
		for pi, part := range parts {
			src := part.ColByName(def.Name)
			if src == nil {
				continue
			}
			if src.Type() != def.Typ {
				return nil, fmt.Errorf("exec: union column %q is %s in part %q, want %s", def.Name, src.Type(), tags[pi], def.Typ)
			}
			srcs[pi] = src
			measure = measure || src.Measure()
		}
		switch {
		case measure && def.Typ == table.TFloat64:
			unionMeasure(b, def.Name, parts, srcs, func(c *table.Column) []float64 { _, f := c.NumericDict(); return f })
		case measure:
			unionMeasure(b, def.Name, parts, srcs, func(c *table.Column) []int64 { i, _ := c.NumericDict(); return i })
		default:
			unionCodes(b, def, parts, srcs)
		}
	}
	tag, r := b.Add(table.ColumnDef{Name: GrpTagCol, Typ: table.TString}), 0
	for pi, part := range parts {
		for range part.NumRows() {
			b.SetValue(r, tag, table.Str(tags[pi]))
			r++
		}
	}
	return b.Table(), nil
}

// unionMeasure concatenates the parts' values of one aggregate column into a
// measure column, decoding each part's codes through its dictionary values
// (so gathered and interned parts work too); an absent column is NULL.
func unionMeasure[T int64 | float64](b *table.Builder, name string, parts []*table.Table, srcs []*table.Column, dictOf func(*table.Column) []T) {
	n := 0
	for _, part := range parts {
		n += part.NumRows()
	}
	vals, valid := make([]T, 0, n), make([]bool, n)
	for pi, src := range srcs {
		if src == nil {
			vals = vals[:len(vals)+parts[pi].NumRows()] // zero, and NULL in valid
			continue
		}
		dict, v := dictOf(src), src.View()
		for r := range src.Len() {
			var val T
			if code := v.At(r); code != 0 {
				val, valid[len(vals)] = dict[code-1], true
			}
			vals = append(vals, val)
		}
	}
	table.AddMeasure(b, name, vals, valid)
}

// unionCodes concatenates the parts' codes of one column under the largest
// of their dictionaries, which decodes every part's codes when all share one
// lineage (see table.Column.SharesDict); an absent column is NULL. Parts
// built over unrelated dictionaries are re-interned instead, the distinct
// values coded in first-appearance order.
func unionCodes(b *table.Builder, def table.ColumnDef, parts []*table.Table, srcs []*table.Column) {
	var tmpl *table.Column
	shared := true
	for _, src := range srcs {
		switch {
		case src == nil:
		case tmpl == nil:
			tmpl = src
		case !src.SharesDict(tmpl):
			shared = false
		case src.DictSize() > tmpl.DictSize():
			tmpl = src
		}
	}
	var c int
	if tmpl != nil && shared {
		c = b.Like(tmpl, def.Name)
	} else {
		c = b.Add(def)
	}
	r := 0
	for pi, src := range srcs {
		if src == nil {
			r += parts[pi].NumRows() // NULL: the builder's cells start zero
			continue
		}
		v := src.View()
		for i := range src.Len() {
			if shared {
				b.Set(r, c, v.At(i))
			} else {
				b.SetValue(r, c, src.Value(i))
			}
			r++
		}
	}
}

// SplitTagged is the inverse of UnionAllTagged: it splits a GROUPING
// SETS-shaped result back into one table per Grp-Tag, in first-appearance
// tag order, preserving row order and dropping the tag column. Each part
// keeps the full union schema (grouping columns absent from a part's set
// stay NULL — the tag, not the NULLs, is the authoritative set marker, since
// a NULL grouping value is indistinguishable from an absent column). A table
// without a grp_tag column is a malformed request and returns an error.
func SplitTagged(t *table.Table) (parts []*table.Table, tags []string, err error) {
	tagOrd := t.ColIndex(GrpTagCol)
	if tagOrd < 0 {
		return nil, nil, fmt.Errorf("exec: table %q has no %s column to split on", t.Name(), GrpTagCol)
	}
	keep := make([]int, 0, t.NumCols()-1)
	for i := 0; i < t.NumCols(); i++ {
		if i != tagOrd {
			keep = append(keep, i)
		}
	}
	rowsByTag := map[string][]int32{}
	col := t.Col(tagOrd)
	for r := 0; r < t.NumRows(); r++ {
		v := col.Value(r)
		if v.Null {
			return nil, nil, fmt.Errorf("exec: NULL %s at row %d", GrpTagCol, r)
		}
		if _, seen := rowsByTag[v.S]; !seen {
			tags = append(tags, v.S)
		}
		rowsByTag[v.S] = append(rowsByTag[v.S], int32(r))
	}
	for _, tag := range tags {
		g := t.Gather(tag, rowsByTag[tag])
		parts = append(parts, g.Project(tag, keep))
	}
	return parts, tags, nil
}

// HashJoin computes the inner equi-join of l and r on l.lKey = r.rKey. The
// output schema is all columns of l followed by all columns of r; name
// clashes on the right side get the right table's name as a prefix. NULL keys
// never join (SQL semantics).
func HashJoin(l, r *table.Table, lKey, rKey int, outName string) *table.Table {
	// Build side: hash right-side key values to row lists. The two tables
	// have distinct dictionaries, so the build keys on decoded values via a
	// value-keyed map; join keys are single columns which keeps this simple.
	build := make(map[table.Value][]int32, r.NumRows())
	rCol := r.Col(rKey)
	for i := 0; i < r.NumRows(); i++ {
		v := rCol.Value(i)
		if v.Null {
			continue
		}
		v.Typ = normalizeJoinType(v.Typ)
		build[v] = append(build[v], int32(i))
	}
	var lIdx, rIdx []int32
	lCol := l.Col(lKey)
	for i := 0; i < l.NumRows(); i++ {
		v := lCol.Value(i)
		if v.Null {
			continue
		}
		v.Typ = normalizeJoinType(v.Typ)
		for _, rr := range build[v] {
			lIdx = append(lIdx, int32(i))
			rIdx = append(rIdx, rr)
		}
	}
	out := table.NewBuilder(outName, len(lIdx), l.NumCols()+r.NumCols())
	gather := func(src *table.Column, name string, idx []int32) {
		c, v := out.Like(src, name), src.View()
		for i, row := range idx {
			out.Set(i, c, v.At(int(row)))
		}
	}
	for i := 0; i < l.NumCols(); i++ {
		gather(l.Col(i), l.Col(i).Name(), lIdx)
	}
	for i := 0; i < r.NumCols(); i++ {
		name := r.Col(i).Name()
		if l.ColIndex(name) >= 0 {
			name = r.Name() + "_" + name
		}
		gather(r.Col(i), name, rIdx)
	}
	return out.Table()
}

// normalizeJoinType lets TInt64 and TDate keys join (both carry I); other
// cross-type joins are planner errors surfaced by Value.Compare panics.
func normalizeJoinType(t table.Type) table.Type {
	if t == table.TDate {
		return table.TInt64
	}
	return t
}
