package table

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gbmqo/internal/colset"
)

func sampleDefs() []ColumnDef {
	return []ColumnDef{
		{Name: "id", Typ: TInt64},
		{Name: "name", Typ: TString},
		{Name: "score", Typ: TFloat64},
		{Name: "day", Typ: TDate},
	}
}

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tb := New("t", sampleDefs())
	tb.AppendRow(Int(1), Str("alice"), Float(1.5), Date(10))
	tb.AppendRow(Int(2), Str("bob"), Float(2.5), Date(11))
	tb.AppendRow(Int(1), Null(TString), Null(TFloat64), Date(10))
	return tb
}

func TestAppendAndDecode(t *testing.T) {
	tb := sampleTable(t)
	if tb.NumRows() != 3 || tb.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	row := tb.Row(2)
	if row[0].I != 1 || !row[1].Null || !row[2].Null || row[3].I != 10 {
		t.Fatalf("row 2 = %v", row)
	}
}

func TestDictSharing(t *testing.T) {
	tb := sampleTable(t)
	// Rows 0 and 2 share the id code for value 1.
	c := tb.Col(0)
	if c.Code(0) != c.Code(2) {
		t.Fatal("equal values got different codes")
	}
	if c.Code(0) == c.Code(1) {
		t.Fatal("different values got equal codes")
	}
}

func TestNullCodeIsZero(t *testing.T) {
	tb := sampleTable(t)
	if !tb.Col(1).IsNull(2) || tb.Col(1).Code(2) != 0 {
		t.Fatal("NULL should have code 0")
	}
	if tb.Col(1).IsNull(0) {
		t.Fatal("non-null reported as null")
	}
}

func TestAppendTypeMismatchPanics(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "a", Typ: TInt64}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	tb.AppendRow(Str("oops"))
}

func TestAppendRowArityPanics(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "a", Typ: TInt64}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	tb.AppendRow(Int(1), Int(2))
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate column")
		}
	}()
	New("t", []ColumnDef{{Name: "a", Typ: TInt64}, {Name: "a", Typ: TString}})
}

func TestGatherSharesDict(t *testing.T) {
	tb := sampleTable(t)
	g := tb.Gather("g", []int32{2, 0})
	if g.NumRows() != 2 {
		t.Fatalf("gather rows = %d", g.NumRows())
	}
	if !reflect.DeepEqual(g.Row(0), tb.Row(2)) || !reflect.DeepEqual(g.Row(1), tb.Row(0)) {
		t.Fatal("gather reordered values wrong")
	}
	if g.Col(1).dict != tb.Col(1).dict {
		t.Fatal("gather did not share dictionary")
	}
}

func TestProject(t *testing.T) {
	tb := sampleTable(t)
	p := tb.Project("p", []int{3, 0})
	if p.NumCols() != 2 || p.Col(0).Name() != "day" || p.Col(1).Name() != "id" {
		t.Fatalf("project schema = %v", p.ColNames())
	}
	if p.NumRows() != tb.NumRows() {
		t.Fatalf("project rows = %d", p.NumRows())
	}
}

func TestColIndexAndByName(t *testing.T) {
	tb := sampleTable(t)
	if tb.ColIndex("score") != 2 {
		t.Fatalf("ColIndex(score) = %d", tb.ColIndex("score"))
	}
	if tb.ColIndex("nope") != -1 {
		t.Fatal("missing column should give -1")
	}
	if tb.ColByName("nope") != nil {
		t.Fatal("missing column should give nil")
	}
	if tb.ColByName("name").Name() != "name" {
		t.Fatal("ColByName wrong column")
	}
}

func TestDistinctCount(t *testing.T) {
	tb := sampleTable(t)
	if got := tb.Col(0).DistinctCount(); got != 2 {
		t.Fatalf("id distinct = %d, want 2", got)
	}
	// name has alice, bob, NULL -> 3 distinct groups.
	if got := tb.Col(1).DistinctCount(); got != 3 {
		t.Fatalf("name distinct = %d, want 3", got)
	}
}

func TestRanksOrderValues(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "s", Typ: TString}})
	for _, s := range []string{"pear", "apple", "fig"} {
		tb.AppendRow(Str(s))
	}
	tb.AppendRow(Null(TString))
	c := tb.Col(0)
	ranks := c.Ranks()
	// NULL (code 0) must rank lowest.
	if ranks[0] != 0 {
		t.Fatalf("NULL rank = %d", ranks[0])
	}
	// apple < fig < pear regardless of insertion order.
	get := func(s string) uint32 {
		for i := 0; i < 3; i++ {
			if c.Value(i).S == s {
				return ranks[c.Code(i)]
			}
		}
		t.Fatalf("value %q not found", s)
		return 0
	}
	if !(get("apple") < get("fig") && get("fig") < get("pear")) {
		t.Fatalf("ranks out of order: apple=%d fig=%d pear=%d", get("apple"), get("fig"), get("pear"))
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Str("a"), Str("b"), -1},
		{Date(5), Date(4), 1},
		{Null(TInt64), Int(-100), -1},
		{Int(-100), Null(TInt64), 1},
		{Null(TString), Null(TString), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic comparing across types")
		}
	}()
	Int(1).Compare(Str("x"))
}

func TestValueEqualNullSemantics(t *testing.T) {
	if !Null(TInt64).Equal(Null(TInt64)) {
		t.Fatal("NULL should equal NULL for grouping")
	}
	if Null(TInt64).Equal(Int(0)) {
		t.Fatal("NULL should not equal 0")
	}
}

func TestWidthBytes(t *testing.T) {
	tb := sampleTable(t)
	// id 8 + score 8 + day 4 = 20, plus avg string width of {alice,bob}.
	strW := tb.Col(1).AvgWidth()
	if strW != 4 { // (5+3)/2
		t.Fatalf("string avg width = %v, want 4", strW)
	}
	if got := tb.WidthBytes(colset.Set(0)); got != 24 {
		t.Fatalf("full width = %v, want 24", got)
	}
	if got := tb.WidthBytes(colset.Of(0, 3)); got != 12 {
		t.Fatalf("subset width = %v, want 12", got)
	}
	if tb.SizeBytes() != 24*3 {
		t.Fatalf("SizeBytes = %v", tb.SizeBytes())
	}
}

func TestEmptyStringColumnWidth(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "s", Typ: TString}})
	if tb.Col(0).AvgWidth() != 1 {
		t.Fatalf("empty string column width = %v", tb.Col(0).AvgWidth())
	}
}

func TestRename(t *testing.T) {
	tb := sampleTable(t)
	r := tb.Rename("other")
	if r.Name() != "other" || tb.Name() != "t" {
		t.Fatal("rename should not mutate original")
	}
	if r.NumRows() != tb.NumRows() {
		t.Fatal("rename changed data")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable(t)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("t", sampleDefs(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatalf("round trip rows = %d", back.NumRows())
	}
	for i := 0; i < tb.NumRows(); i++ {
		a, b := tb.Row(i), back.Row(i)
		for j := range a {
			if !a[j].Equal(b[j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	defs := []ColumnDef{{Name: "a", Typ: TInt64}}
	if _, err := ReadCSV("t", defs, strings.NewReader("b\n1\n")); err == nil {
		t.Error("mismatched header accepted")
	}
	if _, err := ReadCSV("t", defs, strings.NewReader("a\nxyz\n")); err == nil {
		t.Error("bad integer accepted")
	}
	if _, err := ReadCSV("t", defs, strings.NewReader("a,b\n")); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestFormatRows(t *testing.T) {
	tb := sampleTable(t)
	out := tb.FormatRows(2)
	if !strings.Contains(out, "alice") || !strings.Contains(out, "1 more rows") {
		t.Fatalf("FormatRows output:\n%s", out)
	}
	full := tb.FormatRows(-1)
	if !strings.Contains(full, "NULL") {
		t.Fatalf("FormatRows should render NULL:\n%s", full)
	}
}

func TestTypeString(t *testing.T) {
	if TInt64.String() != "BIGINT" || TString.String() != "VARCHAR" ||
		TDate.String() != "DATE" || TFloat64.String() != "FLOAT" {
		t.Fatal("unexpected type names")
	}
	if !strings.Contains(Type(99).String(), "99") {
		t.Fatal("unknown type should include the code")
	}
}

// Property: dictionary round-trips arbitrary int64 and string values.
func TestQuickDictRoundTripInt(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "a", Typ: TInt64}})
	f := func(v int64) bool {
		tb.AppendRow(Int(v))
		got := tb.Col(0).Value(tb.NumRows() - 1)
		return !got.Null && got.I == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDictRoundTripString(t *testing.T) {
	tb := New("t", []ColumnDef{{Name: "a", Typ: TString}})
	f := func(v string) bool {
		tb.AppendRow(Str(v))
		got := tb.Col(0).Value(tb.NumRows() - 1)
		return !got.Null && got.S == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: codes are equal iff values are equal within a column.
func TestQuickCodeEqualityMatchesValueEquality(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tb := New("t", []ColumnDef{{Name: "a", Typ: TInt64}})
	for i := 0; i < 500; i++ {
		if r.Intn(10) == 0 {
			tb.AppendRow(Null(TInt64))
		} else {
			tb.AppendRow(Int(int64(r.Intn(20))))
		}
	}
	c := tb.Col(0)
	for trial := 0; trial < 200; trial++ {
		i, j := r.Intn(c.Len()), r.Intn(c.Len())
		codesEq := c.Code(i) == c.Code(j)
		valsEq := c.Value(i).Equal(c.Value(j))
		if codesEq != valsEq {
			t.Fatalf("rows %d,%d: codes equal=%v values equal=%v", i, j, codesEq, valsEq)
		}
	}
}
