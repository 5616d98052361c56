package gbmqo

import (
	"fmt"
	"strings"

	"gbmqo/internal/colset"
	"gbmqo/internal/table"
)

// DeriveFn computes a derived column value from a source value. The paper's
// §1 notes that grouping columns "may sometimes contain derived columns,
// e.g., LEN(c) for computing the length distribution of a column c"; derived
// columns are materialized once and then participate in grouping sets,
// statistics and indexes like any other column.
type DeriveFn func(Value) Value

// Built-in derivations.
var (
	// DeriveLen maps a string to its length (NULL stays NULL) — LEN(c).
	DeriveLen DeriveFn = func(v Value) Value {
		if v.Null {
			return table.Null(table.TInt64)
		}
		return table.Int(int64(len(v.S)))
	}
	// DeriveYear maps a date (days since epoch) to a year bucket of 365 days.
	DeriveYear DeriveFn = func(v Value) Value {
		if v.Null {
			return table.Null(table.TInt64)
		}
		return table.Int(v.I / 365)
	}
	// DeriveIsNull maps any value to 0/1 NULL-ness, for missing-value
	// distributions.
	DeriveIsNull DeriveFn = func(v Value) Value {
		if v.Null {
			return table.Int(1)
		}
		return table.Int(0)
	}
)

// AddDerivedColumn materializes fn(src) as a new column appended to the
// named table and re-registers the widened table under the same name.
// Existing statistics and indexes on the table are dropped (the schema
// changed); they rebuild on demand. The returned table is the widened one.
// typ is the derived column's type; fn must return values of that type (or
// NULL).
func (db *DB) AddDerivedColumn(tableName, newCol, srcCol string, typ Type, fn DeriveFn) (*Table, error) {
	t, ok := db.eng.Catalog().Table(tableName)
	if !ok {
		return nil, fmt.Errorf("gbmqo: unknown table %q", tableName)
	}
	if t.NumCols() >= colset.MaxColumns {
		return nil, fmt.Errorf("gbmqo: table %q already has the maximum %d columns", tableName, colset.MaxColumns)
	}
	srcOrds, err := db.resolveCols(t, []string{srcCol})
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.NumCols(); i++ {
		if strings.EqualFold(t.Col(i).Name(), newCol) {
			return nil, fmt.Errorf("gbmqo: table %q already has a column %q", tableName, newCol)
		}
	}
	src := t.Col(srcOrds[0])
	b := table.NewBuilder(tableName, t.NumRows(), t.NumCols()+1)
	for i := 0; i < t.NumCols(); i++ {
		b.Copy(t.Col(i), "")
	}
	out := b.Add(table.ColumnDef{Name: newCol, Typ: typ})
	for i := 0; i < src.Len(); i++ {
		v := fn(src.Value(i))
		if !v.Null && v.Typ != typ {
			return nil, fmt.Errorf("gbmqo: derivation produced %s, declared %s", v.Typ, typ)
		}
		b.SetValue(i, out, v)
	}
	widened := b.Table()
	db.eng.Catalog().Register(widened)
	return widened, nil
}
