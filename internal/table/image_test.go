package table

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// sampleRows are sampleTable's rows.
func sampleRows() [][]Value {
	return [][]Value{
		{Int(1), Str("alice"), Float(1.5), Date(10)},
		{Int(2), Str("bob"), Float(2.5), Date(11)},
		{Int(1), Null(TString), Null(TFloat64), Date(10)},
	}
}

// pick returns the columns ords of rows, rows reordered by idx (nil: all in
// order).
func pick(rows [][]Value, idx []int, ords ...int) [][]Value {
	if idx == nil {
		for r := range rows {
			idx = append(idx, r)
		}
	}
	out := make([][]Value, len(idx))
	for i, r := range idx {
		for _, o := range ords {
			out[i] = append(out[i], rows[r][o])
		}
	}
	return out
}

// constructed is one table of the constructor matrix and the rows it must
// hold.
type constructed struct {
	name string
	tb   *Table
	want [][]Value
}

// constructors builds a table through every constructor of the package.
func constructors(t *testing.T) []constructed {
	all := []int{0, 1, 2, 3}
	s := sampleTable(t)
	sample := sampleRows()
	appended := append(sampleRows(), appendRows()...)
	rowsA := [][]Value{{Int(7), Str("carol"), Float(7.5), Date(20)}}
	rowsB := [][]Value{{Int(8), Str("dave"), Null(TFloat64), Date(21)}}

	builder := NewBuilder("b", 3, 3)
	builder.Like(s.Col(1), "like")
	for r, src := range []int{2, 0, 1} {
		builder.Set(r, 0, s.Col(1).Code(src))
	}
	fresh := builder.Add(ColumnDef{Name: "fresh", Typ: TDate})
	for r := range 3 {
		builder.SetValue(r, fresh, Date(int64(100-r)))
	}
	AddMeasure(builder, "cnt", []int64{4, 5, 6}, []bool{true, false, true})

	// An extension parent with spare room, and the patches that continue it
	// by a copy of its row 0, once plain and once with row 1's id replaced.
	parent := extendedTable(t)
	parentRows := append(sampleRows(), []Value{Int(1), Str("alice"), Float(1.5), Date(10)})
	row0 := func(touch bool) []Patch {
		cols := make([]Patch, parent.NumCols())
		for i := range cols {
			var at []int32
			var codes []uint32
			if touch && i == 0 {
				at, codes = []int32{1}, []uint32{parent.Col(0).Code(0)}
			}
			cols[i] = parent.Col(i).Extend(parent.Col(i), at, codes, []uint32{parent.Col(i).Code(0)})
		}
		return cols
	}
	touchedRows := append(pick(parentRows, nil, all...), parentRows[0])
	touchedRows[1][0] = Int(1)

	// Builder.Copy assembles columns of two different tables.
	cb := NewBuilder("f", 3, 2)
	cb.Copy(s.Col(3), "")
	cb.Copy(parent.Gather("g", []int32{3, 2, 1}).Col(1), "")

	m := measureTable([]int64{5, 0, 7}, []bool{true, false, true})
	mb := NewBuilder("r", 3, 2)
	mb.Copy(s.Col(1), "")
	AddMeasure(mb, "cnt", []int64{7, 2, 7}, nil)

	return []constructed{
		{"New+AppendRow", s, sample},
		{"Builder.Copy", cb.Table(),
			[][]Value{{Date(10), Str("alice")}, {Date(11), Null(TString)}, {Date(10), Str("bob")}}},
		{"Builder", builder.Table(), [][]Value{
			{Null(TString), Date(100), Int(4)}, {Str("alice"), Date(99), Null(TInt64)}, {Str("bob"), Date(98), Int(6)}}},
		{"Gather", s.Gather("g", []int32{2, 0, 2}), pick(sample, []int{2, 0, 2}, all...)},
		{"Project", s.Project("p", []int{3, 1}), pick(sample, nil, 3, 1)},
		{"Rename", s.Rename("r"), sample},
		{"Append first", s.Append(rowsA), append(sampleRows(), rowsA...)},
		{"Append second", s.Append(rowsB), append(sampleRows(), rowsB...)},
		{"Extend", parent.Extend("e", row0(false), nil), append(pick(parentRows, nil, all...), parentRows[0])},
		{"Extend touched", parent.Extend("e", row0(true), []int32{1}), touchedRows},
		{"ExtendMeasure", m.Extend("m", []Patch{ExtendMeasure(m.Col(0), []int64{5, 3, 7, 9}, []int32{1}, []bool{true})}, []int32{1}),
			[][]Value{{Int(5)}, {Int(3)}, {Int(7)}, {Int(9)}}},
		{"DeltaView", s.Append(appendRows()).DeltaView(), appendRows()},
		{"Append of a DeltaView", sampleTable(t).Append(appendRows()).DeltaView().Append(rowsA), append(appendRows(), rowsA...)},
		{"InternMeasures", mb.Table().InternMeasures(), [][]Value{{Str("alice"), Int(7)}, {Str("bob"), Int(2)}, {Null(TString), Int(7)}}},
		{"Append chain", sampleTable(t).Append(appendRows()), appended},
	}
}

// TestConstructorMatrix: a table from every constructor decodes the rows it
// was built from (by value, never by codes alone), reads each column's
// codes from the one image, and is charged that image's capacity.
func TestConstructorMatrix(t *testing.T) {
	for _, tc := range constructors(t) {
		tb := tc.tb
		if tb.NumRows() != len(tc.want) {
			t.Errorf("%s: %d rows, want %d", tc.name, tb.NumRows(), len(tc.want))
			continue
		}
		img, stride := tb.RowImage()
		if stride != 4*tb.NumCols() || len(img) != tb.NumRows()*stride {
			t.Errorf("%s: image of %d bytes at stride %d for %d×%d", tc.name, len(img), stride, tb.NumRows(), tb.NumCols())
			continue
		}
		for r, want := range tc.want {
			for c, v := range want {
				col := tb.Col(c)
				if got := col.Value(r); got != v {
					t.Errorf("%s: row %d column %q = %v, want %v", tc.name, r, col.Name(), got, v)
				}
				if word := binary.LittleEndian.Uint32(img[r*stride+4*c:]); col.Code(r) != word || col.View().At(r) != word {
					t.Errorf("%s: row %d column %q reads code %d, image word %d", tc.name, r, col.Name(), col.Code(r), word)
				}
			}
		}
		if got := tb.MemSize(); got != int64(cap(img)) {
			t.Errorf("%s: MemSize %d, image capacity %d", tc.name, got, cap(img))
		}
	}
}

// TestRowImageAllocatesNothing: the image is written when a table is built,
// so asking for it, on a table from any constructor, allocates nothing — on
// the first call too, which testing.AllocsPerRun's warm-up run would hide.
func TestRowImageAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range constructors(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.tb.RowImage()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: the first RowImage allocates %d times", tc.name, n)
		}
		if allocs := testing.AllocsPerRun(10, func() { tc.tb.RowImage() }); allocs != 0 {
			t.Errorf("%s: RowImage allocates %v times", tc.name, allocs)
		}
	}
}

// TestImageWidth: a projection scans narrow — its image holds only the
// projected columns — while Rename and DeltaView share their parent's image,
// the delta view capped at the segment end.
func TestImageWidth(t *testing.T) {
	s := sampleTable(t).Append(appendRows())
	if img, stride := s.Project("p", []int{2}).RowImage(); stride != 4 || len(img) != 4*s.NumRows() {
		t.Fatalf("a one-column projection has stride %d and %d bytes", stride, len(img))
	}
	simg, stride := s.RowImage()
	if rimg, _ := s.Rename("r").RowImage(); &rimg[0] != &simg[0] || len(rimg) != len(simg) {
		t.Fatal("Rename does not share its parent's image")
	}
	dimg, _ := s.DeltaView().RowImage()
	if &dimg[0] != &simg[s.DeltaStart()*stride] || len(dimg) != cap(dimg) || len(dimg) != (s.NumRows()-s.DeltaStart())*stride {
		t.Fatal("DeltaView does not share its parent's segment, capped at its end")
	}
}

// TestSecondChildWhileParentScans: readers of a parent snapshot and of its
// first child scan images and decode values while a second child of the
// same parent is built — once by Append, once by Extend as a cache roll does
// — and the second child copies rather than writing over the first child's
// tail (run with -race).
func TestSecondChildWhileParentScans(t *testing.T) {
	check := func(name string, tb *Table, want [][]Value) {
		img, stride := tb.RowImage()
		for r, row := range want {
			for c, v := range row {
				if got := tb.Col(c).Value(r); got != v || tb.Col(c).Code(r) != binary.LittleEndian.Uint32(img[r*stride+4*c:]) {
					t.Errorf("%s: row %d column %d = %v, want %v", name, r, c, got, v)
					return
				}
			}
		}
	}
	scanWhile := func(second func() (*Table, [][]Value), tables ...constructed) {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for _, tc := range tables {
						check(tc.name, tc.tb, tc.want)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		tb, want := second()
		close(stop)
		wg.Wait()
		check("second child", tb, want)
		for _, tc := range tables {
			check(tc.name, tc.tb, tc.want)
		}
	}

	// Append: the base snapshot's copy leaves spare room, which the first
	// child's rows fill.
	base := sampleTable(t).Append(appendRows())
	baseRows := append(sampleRows(), appendRows()...)
	rowsA := [][]Value{{Int(7), Str("carol"), Float(7.5), Date(20)}}
	rowsB := [][]Value{{Int(8), Str("dave"), Null(TFloat64), Date(21)}}
	first := base.Append(rowsA)
	scanWhile(func() (*Table, [][]Value) {
		return base.Append(rowsB), append(append([][]Value{}, baseRows...), rowsB...)
	},
		constructed{"parent", base, baseRows}, constructed{"first child", first, append(append([][]Value{}, baseRows...), rowsA...)})

	// Extend: a rolled result and the first roll forward of it.
	parent := extendedTable(t)
	parentRows := append(sampleRows(), []Value{Int(1), Str("alice"), Float(1.5), Date(10)})
	child := func(r int) (*Table, [][]Value) {
		cols := make([]Patch, parent.NumCols())
		for i := range cols {
			cols[i] = parent.Col(i).Extend(parent.Col(i), nil, nil, []uint32{parent.Col(i).Code(r)})
		}
		return parent.Extend("t", cols, nil), append(append([][]Value{}, parentRows...), parentRows[r])
	}
	rolled, rolledRows := child(1)
	scanWhile(func() (*Table, [][]Value) { return child(0) },
		constructed{"parent", parent, parentRows}, constructed{"first roll", rolled, rolledRows})
}
