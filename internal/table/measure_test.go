package table

import (
	"strings"
	"testing"
)

func TestMeasureColumnIsIdentityEncoded(t *testing.T) {
	b := NewBuilder("m", 4, 1)
	AddMeasure(b, "cnt", []int64{5, 3, 5, 9}, []bool{true, true, true, false})
	tb := b.Table()
	c := tb.Col(0)
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
	fb := NewBuilder("f", 2, 1)
	AddMeasure(fb, "avg", []float64{0.5, 0.5}, nil)
	f := fb.Table().Col(0)
	if f.Type() != TFloat64 || f.Value(1) != Float(0.5) || f.HasNull() {
		t.Errorf("float measure: type %s row 1 %v has null %v", f.Type(), f.Value(1), f.HasNull())
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "measure column") {
			t.Fatalf("Append on a measure column: panic %v, want a measure-column panic", p)
		}
	}()
	tb.Append([][]Value{{Int(1)}})
}

func TestInternMeasuresSharesCodesForEqualValues(t *testing.T) {
	plain := New("plain", []ColumnDef{{Name: "k", Typ: TString}})
	for _, s := range []string{"a", "b", "c"} {
		plain.AppendRow(Str(s))
	}
	if plain.InternMeasures() != plain {
		t.Fatal("a table without measure columns was copied")
	}
	b := NewBuilder("r", 3, 2)
	b.Copy(plain.Col(0), "")
	AddMeasure(b, "cnt", []int64{7, 2, 7}, nil)
	tb := b.Table()
	got := tb.InternMeasures()
	if key := got.Col(0); !key.SharesDict(plain.Col(0)) || key.Code(1) != plain.Col(0).Code(1) || got.Name() != "r" {
		t.Fatal("interning re-encoded a key column or renamed the table")
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
	b := NewBuilder("x", 0, 1)
	b.Like(tb.Col(0), "x")
	if !next.Col(0).SharesDict(tb.Col(0)) || !b.Table().Col(0).SharesDict(next.Col(0)) {
		t.Error("an append extension or Builder.Like copy does not share its parent's dictionary lineage")
	}
	if tb.Col(0).SharesDict(other.Col(0)) {
		t.Error("two independently built dictionaries report a shared lineage")
	}
}
