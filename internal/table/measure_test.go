package table

import (
	"strings"
	"testing"
)

func TestMeasureColumnIsIdentityEncoded(t *testing.T) {
	c := MeasureColumn("cnt", []int64{5, 3, 5, 9}, []bool{true, true, true, false})
	if c.Type() != TInt64 || !c.Measure() || c.Len() != 4 || c.DictSize() != 4 {
		t.Fatalf("type %s measure %v len %d dict %d, want INT64 true 4 4", c.Type(), c.Measure(), c.Len(), c.DictSize())
	}
	for i, want := range []uint32{1, 2, 3, 0} {
		if c.Code(i) != want {
			t.Errorf("row %d code %d, want %d (row i has code i+1, NULL 0)", i, c.Code(i), want)
		}
	}
	if c.Value(2) != Int(5) || !c.Value(3).Null {
		t.Errorf("decoded rows 2,3 = %v, %v; want 5, NULL", c.Value(2), c.Value(3))
	}
	if ints, _ := c.NumericDict(); ints[3] != 0 {
		t.Errorf("NULL row's value slot = %d, want zeroed", ints[3])
	}
	f := MeasureColumn("avg", []float64{0.5, 0.5}, nil)
	if f.Type() != TFloat64 || f.Value(1) != Float(0.5) || f.HasNull() {
		t.Errorf("float measure: type %s row 1 %v has null %v", f.Type(), f.Value(1), f.HasNull())
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "measure column") {
			t.Fatalf("Append on a measure column: panic %v, want a measure-column panic", p)
		}
	}()
	c.Append(Int(1))
}

func TestInternMeasuresSharesCodesForEqualValues(t *testing.T) {
	key := NewColumn(ColumnDef{Name: "k", Typ: TString})
	for _, s := range []string{"a", "b", "c"} {
		key.Append(Str(s))
	}
	plain := FromColumns("plain", []*Column{key})
	if plain.InternMeasures() != plain {
		t.Fatal("a table without measure columns was copied")
	}
	tb := FromColumns("r", []*Column{key, MeasureColumn("cnt", []int64{7, 2, 7}, nil)})
	got := tb.InternMeasures()
	if got.Col(0) != key || got.Name() != "r" {
		t.Fatal("interning replaced a key column or renamed the table")
	}
	cnt := got.Col(1)
	if cnt.Measure() || cnt.DictSize() != 2 || cnt.Code(0) != cnt.Code(2) || cnt.Value(2) != Int(7) {
		t.Fatalf("interned cnt: measure %v dict %d codes %d/%d", cnt.Measure(), cnt.DictSize(), cnt.Code(0), cnt.Code(2))
	}
}

func TestSharesDictFollowsAppendLineage(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "k", Typ: TInt64}})
	tb.AppendRow(Int(1))
	next := tb.Append([][]Value{{Int(2)}})
	other := New("o", []ColumnDef{{Name: "k", Typ: TInt64}})
	other.AppendRow(Int(1))
	if !next.Col(0).SharesDict(tb.Col(0)) || !tb.Col(0).EmptyLike("x").SharesDict(next.Col(0)) {
		t.Error("an append extension or EmptyLike copy does not share its parent's dictionary lineage")
	}
	if tb.Col(0).SharesDict(other.Col(0)) {
		t.Error("two independently built dictionaries report a shared lineage")
	}
}
