package table

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// extendedTable is sampleTable extended by one row, every code array copied
// (a replacement of row 0 by its own code forces it) and the image too (a
// packed image has no spare room), so all of them have headroom the next
// extension can share.
func extendedTable(t *testing.T) *Table {
	t.Helper()
	base := sampleTable(t)
	base.RowImage()
	cols := make([]*Column, base.NumCols())
	for i := range cols {
		cols[i] = base.Col(i).Extend(base.Col(i), []int32{0}, []uint32{base.Col(i).Code(0)}, []uint32{1})
	}
	return base.Extend("t", cols, []int32{0})
}

// imageOf returns a copy of t's scan image.
func imageOf(t *Table) []byte {
	img, _ := t.RowImage()
	return slices.Clone(img)
}

// TestExtendSharesPrefix: an extension without replacements shares its
// parent's code backing and scan image, writing only past the parent's
// length, and reads as the parent's rows followed by the new ones.
func TestExtendSharesPrefix(t *testing.T) {
	parent := extendedTable(t) // its backings have spare room
	before := imageOf(parent)
	extra := [][]uint32{{1}, {0}, {2}, {2}}
	cols := make([]*Column, parent.NumCols())
	for i := range cols {
		cols[i] = parent.Col(i).Extend(parent.Col(i), nil, nil, extra[i])
		if &cols[i].Codes()[0] != &parent.Col(i).Codes()[0] {
			t.Fatalf("column %d copied codes it could share", i)
		}
	}
	child := parent.Extend("t", cols, nil)
	if child.NumRows() != 5 {
		t.Fatalf("child has %d rows", child.NumRows())
	}
	if prefix, touched := child.Extended(); prefix != 4 || touched != nil {
		t.Fatalf("Extended() = %d, %v", prefix, touched)
	}
	pimg, _ := parent.RowImage()
	cimg, _ := child.RowImage()
	if &pimg[0] != &cimg[0] {
		t.Fatal("the child copied an image it could share")
	}
	if !bytes.Equal(pimg, before) || !bytes.Equal(cimg[:len(pimg)], before) {
		t.Fatal("the parent's image changed")
	}
	if want := packRows(cols, 0, 5); !bytes.Equal(cimg, want) {
		t.Fatal("the child's image differs from a full pack")
	}
	if v := child.Col(0).Value(4); v.I != 1 || !child.Col(1).IsNull(4) {
		t.Fatalf("the new row decodes %v / %v", v, child.Col(1).Value(4))
	}
}

// TestExtendTwiceFromOneParent: a second extension of one parent — a
// sibling, as a roll that was thrown away and retried leaves — copies the
// shared backing instead of writing over the first child's tail, and both
// children keep their own rows.
func TestExtendTwiceFromOneParent(t *testing.T) {
	parent := extendedTable(t)
	extend := func(code uint32) *Table {
		cols := make([]*Column, parent.NumCols())
		for i := range cols {
			cols[i] = parent.Col(i).Extend(parent.Col(i), nil, nil, []uint32{code})
		}
		return parent.Extend("t", cols, nil)
	}
	first := extend(1)
	firstImg := imageOf(first)
	second := extend(2)
	for i := 0; i < parent.NumCols(); i++ {
		if first.Col(i).Code(4) != 1 || second.Col(i).Code(4) != 2 {
			t.Fatalf("column %d: first child reads %d, second %d", i, first.Col(i).Code(4), second.Col(i).Code(4))
		}
	}
	if !bytes.Equal(imageOf(first), firstImg) {
		t.Fatal("the second child wrote over the first child's image")
	}
	// The first child is still the newest view of its backing: it extends in
	// place.
	third := first.Col(0).Extend(first.Col(0), nil, nil, []uint32{2})
	if &third.Codes()[0] != &first.Col(0).Codes()[0] {
		t.Fatal("the newest view copied instead of extending in place")
	}
}

// TestExtendPatchCopies: a replaced code copies the codes, and a touched row
// whose codes changed copies the image and re-packs that row; the parent
// reads exactly as before.
func TestExtendPatchCopies(t *testing.T) {
	parent := sampleTable(t)
	parent.RowImage()
	before := imageOf(parent)
	cols := make([]*Column, parent.NumCols())
	for i := range cols {
		cols[i] = parent.Col(i).Extend(parent.Col(i), nil, nil, []uint32{1})
	}
	cols[3] = parent.Col(3).Extend(parent.Col(3), []int32{1}, []uint32{1}, []uint32{2})
	child := parent.Extend("t", cols, []int32{1})
	if parent.Col(3).Code(1) != 2 || child.Col(3).Code(1) != 1 {
		t.Fatalf("patched code: parent %d, child %d", parent.Col(3).Code(1), child.Col(3).Code(1))
	}
	if !bytes.Equal(imageOf(parent), before) {
		t.Fatal("the parent's image changed")
	}
	if want := packRows(cols, 0, 4); !bytes.Equal(imageOf(child), want) {
		t.Fatal("the child's patched image differs from a full pack")
	}
}

// TestExtendMeasure: a measure extension copies no codes when nothing is
// revived, writes the new rows' codes (NULL where not valid), and a revived
// row gets its code in a copy.
func TestExtendMeasure(t *testing.T) {
	parent := MeasureColumn("s", []int64{5, 0, 7}, []bool{true, false, true})
	child := ExtendMeasure(parent, []int64{6, 0, 7, 9, 4}, nil, []bool{true, false})
	if !slices.Equal(child.Codes(), []uint32{1, 0, 3, 4, 0}) || !child.InRowOrder() {
		t.Fatalf("child codes %v", child.Codes())
	}
	if vals, _ := child.NumericDict(); vals[4] != 0 {
		t.Fatalf("a NULL new row kept value %d", vals[4])
	}
	if got := parent.Value(0); got.I != 5 {
		t.Fatalf("parent value %v", got)
	}
	revived := ExtendMeasure(parent, []int64{5, 3, 7}, []int32{1}, nil)
	if !slices.Equal(revived.Codes(), []uint32{1, 2, 3}) || !parent.IsNull(1) {
		t.Fatalf("revived codes %v, parent row 1 NULL=%v", revived.Codes(), parent.IsNull(1))
	}
	if got := NumericRows[int64](revived, []int64{8}); !slices.Equal(got, []int64{5, 3, 7, 8}) {
		t.Fatalf("NumericRows = %v", got)
	}
}

// TestMemSizeCountsCapacity: MemSize charges code arrays and the image at
// their capacity, spare room included.
func TestMemSizeCountsCapacity(t *testing.T) {
	parent := sampleTable(t)
	parent.RowImage()
	cols := make([]*Column, parent.NumCols())
	for i := range cols {
		cols[i] = parent.Col(i).Extend(parent.Col(i), nil, nil, []uint32{1})
	}
	child := parent.Extend("t", cols, nil)
	img, _ := child.RowImage()
	want := int64(cap(img))
	for i := 0; i < child.NumCols(); i++ {
		want += 4 * int64(cap(child.Col(i).Codes()))
	}
	if got := child.MemSize(); got != want || got <= int64(child.NumRows()*child.NumCols()*4+len(img)) {
		t.Fatalf("MemSize = %d, want %d (above the %d bytes in use)", got, want, child.NumRows()*child.NumCols()*4+len(img))
	}
}

// TestAppendTwiceFromOneParentKeepsRows: two appends from one snapshot —
// outside the engine's contract, but the code arrays and image are guarded
// anyway — leave each child its own rows.
func TestAppendTwiceFromOneParentKeepsRows(t *testing.T) {
	base := sampleTable(t)
	base.RowImage()
	a := base.Append([][]Value{{Int(1), Str("alice"), Float(1.5), Date(10)}})
	aImg := imageOf(a)
	b := base.Append([][]Value{{Int(2), Str("bob"), Float(2.5), Date(11)}})
	if a.Col(0).Value(3).I != 1 || b.Col(0).Value(3).I != 2 {
		t.Fatalf("children read %v and %v", a.Col(0).Value(3), b.Col(0).Value(3))
	}
	if !bytes.Equal(imageOf(a), aImg) {
		t.Fatal("the second append wrote over the first child's image")
	}
}

// TestAppendTwiceFromOneParentKeepsValues: two appends from one snapshot that
// both intern new values — the second child must not pick up the first's
// codes from the shared lookup map, and each child decodes its own rows.
func TestAppendTwiceFromOneParentKeepsValues(t *testing.T) {
	base := sampleTable(t)
	a := base.Append([][]Value{{Int(7), Str("carol"), Float(7.5), Date(20)}})
	b := base.Append([][]Value{
		{Int(8), Str("dave"), Float(8.5), Date(21)},
		{Int(7), Str("carol"), Float(7.5), Date(20)},
	})
	c := a.Append([][]Value{{Int(9), Str("erin"), Float(9.5), Date(22)}})
	d := base.Append([][]Value{{Int(7), Str("carol"), Float(7.5), Date(20)}})
	for _, tc := range []struct {
		name string
		tb   *Table
		row  int
		want []Value
	}{
		{"first child", a, 3, []Value{Int(7), Str("carol"), Float(7.5), Date(20)}},
		{"second child", b, 3, []Value{Int(8), Str("dave"), Float(8.5), Date(21)}},
		{"second child", b, 4, []Value{Int(7), Str("carol"), Float(7.5), Date(20)}},
		{"grandchild", c, 3, []Value{Int(7), Str("carol"), Float(7.5), Date(20)}},
		{"grandchild", c, 4, []Value{Int(9), Str("erin"), Float(9.5), Date(22)}},
		{"third child", d, 3, []Value{Int(7), Str("carol"), Float(7.5), Date(20)}},
	} {
		if got := tc.tb.Row(tc.row); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s row %d = %v, want %v", tc.name, tc.row, got, tc.want)
		}
	}
	if got := base.Col(1).DictValues(); len(got) != 2 {
		t.Fatalf("parent dictionary grew to %v", got)
	}
	if a.Col(1).Code(3) != b.Col(1).Code(3) || b.Col(1).Code(4) != a.Col(1).Code(3)+1 {
		t.Fatalf("codes: a carol %d, b dave %d, b carol %d; want each child to number its own values from the parent's size",
			a.Col(1).Code(3), b.Col(1).Code(3), b.Col(1).Code(4))
	}
}
