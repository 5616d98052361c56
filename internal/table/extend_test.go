package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// patches returns the patch continuing every column of t with one new row
// of code codes[i] in column i, under its own dictionary.
func patches(t *Table, codes ...uint32) []Patch {
	out := make([]Patch, t.NumCols())
	for i := range out {
		out[i] = t.Col(i).Extend(t.Col(i), nil, nil, []uint32{codes[i]})
	}
	return out
}

// extendedTable is sampleTable extended by one row, its image copied (a
// replacement of row 0 by its own code forces it), so the image has headroom
// the next extension can share.
func extendedTable(t *testing.T) *Table { return extendedBy(t, 1) }

// extendedBy is sampleTable extended by rows copies of its first values (code
// 1 in every column), its image copied so it has headroom.
func extendedBy(t *testing.T, rows int) *Table {
	t.Helper()
	base := sampleTable(t)
	tail := make([]uint32, rows)
	for i := range tail {
		tail[i] = 1
	}
	cols := make([]Patch, base.NumCols())
	for i := range cols {
		cols[i] = base.Col(i).Extend(base.Col(i), []int32{0}, []uint32{base.Col(i).Code(0)}, tail)
	}
	return base.Extend("t", cols, []int32{0})
}

// imageOf returns a copy of t's scan image.
func imageOf(t *Table) []byte {
	img, _ := t.RowImage()
	return slices.Clone(img)
}

// packCodes is the row-major image of rows of codes, one word per column.
func packCodes(rows [][]uint32) []byte {
	var out []byte
	for _, row := range rows {
		for _, code := range row {
			out = binary.LittleEndian.AppendUint32(out, code)
		}
	}
	return out
}

// codeRows returns every row of t's codes, read column by column.
func codeRows(t *Table) [][]uint32 {
	out := make([][]uint32, t.NumRows())
	for r := range out {
		for c := 0; c < t.NumCols(); c++ {
			out[r] = append(out[r], t.Col(c).Code(r))
		}
	}
	return out
}

// TestExtendSharesPrefix: an extension without replacements shares its
// parent's image backing, writing only past the parent's length, and reads
// as the parent's rows followed by the new ones.
func TestExtendSharesPrefix(t *testing.T) {
	parent := extendedTable(t) // its image has spare room
	before := imageOf(parent)
	child := parent.Extend("t", patches(parent, 1, 0, 2, 2), nil)
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
	if want := packCodes(append(codeRows(parent), []uint32{1, 0, 2, 2})); !bytes.Equal(cimg, want) {
		t.Fatal("the child's image is not the parent's rows followed by the new one")
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
	parent := extendedBy(t, 13) // 16 rows: a sixteenth of headroom holds two more
	extend := func(code uint32) *Table {
		return parent.Extend("t", patches(parent, code, code, code, code), nil)
	}
	first := extend(1)
	firstImg := imageOf(first)
	second := extend(2)
	n := parent.NumRows()
	for i := 0; i < parent.NumCols(); i++ {
		if first.Col(i).Code(n) != 1 || second.Col(i).Code(n) != 2 {
			t.Fatalf("column %d: first child reads %d, second %d", i, first.Col(i).Code(n), second.Col(i).Code(n))
		}
	}
	if !bytes.Equal(imageOf(first), firstImg) {
		t.Fatal("the second child wrote over the first child's image")
	}
	// The first child is still the newest view of its backing: it extends in
	// place.
	third := first.Extend("t", patches(first, 2, 2, 2, 2), nil)
	if fimg, timg := imageOf(first), imageOf(third); !bytes.Equal(timg[:len(fimg)], fimg) {
		t.Fatal("the third child lost the first child's rows")
	}
	if fimg, timg := first.img.data, third.img.data; &fimg[0] != &timg[0] {
		t.Fatal("the newest view copied instead of extending in place")
	}
}

// TestExtendPatchCopies: a replaced code copies the image once and patches
// that row; the parent reads exactly as before.
func TestExtendPatchCopies(t *testing.T) {
	parent := sampleTable(t)
	before := imageOf(parent)
	cols := patches(parent, 1, 1, 1, 1)
	cols[3] = parent.Col(3).Extend(parent.Col(3), []int32{1}, []uint32{1}, []uint32{2})
	child := parent.Extend("t", cols, []int32{1})
	if parent.Col(3).Code(1) != 2 || child.Col(3).Code(1) != 1 {
		t.Fatalf("patched code: parent %d, child %d", parent.Col(3).Code(1), child.Col(3).Code(1))
	}
	if !bytes.Equal(imageOf(parent), before) {
		t.Fatal("the parent's image changed")
	}
	want := codeRows(parent)
	want[1][3] = 1
	if !bytes.Equal(imageOf(child), packCodes(append(want, []uint32{1, 1, 1, 2}))) {
		t.Fatal("the child's patched image is not the parent's with row 1 patched and the new row")
	}
}

// measureTable is a one-column table holding the measure column s over vals.
func measureTable(vals []int64, valid []bool) *Table {
	b := NewBuilder("m", len(vals), 1)
	AddMeasure(b, "s", vals, valid)
	return b.Table()
}

// TestExtendMeasure: a measure extension shares the image when nothing is
// revived, writes the new rows' codes (NULL where not valid), and a revived
// row gets its code in a copy.
func TestExtendMeasure(t *testing.T) {
	parent := measureTable([]int64{5, 0, 7}, []bool{true, false, true})
	child := parent.Extend("m", []Patch{ExtendMeasure(parent.Col(0), []int64{6, 0, 7, 9, 4}, nil, []bool{true, false})}, nil)
	if got := codeRows(child); fmt.Sprint(got) != "[[1] [0] [3] [4] [0]]" || !child.Col(0).InRowOrder() {
		t.Fatalf("child codes %v", got)
	}
	if vals, _ := child.Col(0).NumericDict(); vals[4] != 0 {
		t.Fatalf("a NULL new row kept value %d", vals[4])
	}
	if got := parent.Col(0).Value(0); got.I != 5 {
		t.Fatalf("parent value %v", got)
	}
	revived := parent.Extend("m", []Patch{ExtendMeasure(parent.Col(0), []int64{5, 3, 7}, []int32{1}, nil)}, []int32{1})
	if got := codeRows(revived); fmt.Sprint(got) != "[[1] [2] [3]]" || !parent.Col(0).IsNull(1) {
		t.Fatalf("revived codes %v, parent row 1 NULL=%v", got, parent.Col(0).IsNull(1))
	}
	if got := NumericRows[int64](revived.Col(0), []int64{8}); !slices.Equal(got, []int64{5, 3, 7, 8}) {
		t.Fatalf("NumericRows = %v", got)
	}
}

// TestMemSizeCountsCapacity: MemSize charges the image, the one copy of the
// codes, at its capacity, spare room included.
func TestMemSizeCountsCapacity(t *testing.T) {
	parent := extendedTable(t)
	child := parent.Extend("t", patches(parent, 1, 1, 1, 1), nil)
	img, _ := child.RowImage()
	if got := child.MemSize(); got != int64(cap(img)) || got <= int64(len(img)) {
		t.Fatalf("MemSize = %d, want the image's capacity %d (above the %d bytes in use)", got, cap(img), len(img))
	}
}

// TestAppendTwiceFromOneParentKeepsRows: two appends from one snapshot —
// outside the engine's contract, but the image is guarded anyway — leave
// each child its own rows.
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
