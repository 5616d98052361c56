package table

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

func appendRows() [][]Value {
	return [][]Value{
		{Int(3), Str("carol"), Float(3.5), Date(12)},
		{Int(1), Str("alice"), Null(TFloat64), Date(10)},
		{Int(4), Null(TString), Float(4.5), Null(TDate)},
	}
}

func TestAppendSnapshotIsolation(t *testing.T) {
	base := sampleTable(t)
	next := base.Append(appendRows())
	if base.NumRows() != 3 {
		t.Fatalf("append mutated parent row count: %d", base.NumRows())
	}
	if next.NumRows() != 6 || next.NumCols() != base.NumCols() {
		t.Fatalf("child shape = %dx%d", next.NumRows(), next.NumCols())
	}
	if next.DeltaStart() != 3 || !next.HasDelta() {
		t.Fatalf("DeltaStart = %d, HasDelta = %v", next.DeltaStart(), next.HasDelta())
	}
	if base.HasDelta() {
		t.Fatal("parent should not report a delta")
	}
	// Old-snapshot readers see exactly the pre-append rows.
	for i := 0; i < base.NumRows(); i++ {
		a, b := base.Row(i), next.Row(i)
		for j := range a {
			if !a[j].Equal(b[j]) {
				t.Fatalf("row %d col %d diverged: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
	if v := next.Col(1).Value(3); v.S != "carol" {
		t.Fatalf("delta row decoded %v", v)
	}
	if !next.Col(3).IsNull(5) {
		t.Fatal("delta NULL lost")
	}
}

// TestHasNullFollowsAppends: the memoised NULL bit is per snapshot. A child
// that inherits its parent's answer scans only its own rows, and the parent
// keeps its answer whichever of the two asks first.
func TestHasNullFollowsAppends(t *testing.T) {
	hasNull := func(tb *Table) []bool {
		out := make([]bool, tb.NumCols())
		for c := range out {
			out[c] = tb.Col(c).HasNull()
		}
		return out
	}
	for _, parentFirst := range []bool{true, false} {
		base := sampleTable(t)
		if parentFirst {
			hasNull(base)
		}
		next := base.Append(appendRows())
		for _, check := range []struct {
			name string
			tb   *Table
			want []bool
		}{
			{"child", next, []bool{false, true, true, true}},
			{"parent", base, []bool{false, true, true, false}},
			{"delta", next.DeltaView(), []bool{false, true, true, true}},
		} {
			if got := hasNull(check.tb); !slices.Equal(got, check.want) {
				t.Fatalf("parent first %v: %s HasNull = %v, want %v", parentFirst, check.name, got, check.want)
			}
		}
	}

	// Readers of a snapshot race to memoise its answer while an append
	// copies it (run with -race).
	base := sampleTable(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := hasNull(base); !slices.Equal(got, []bool{false, true, true, false}) {
				t.Errorf("concurrent parent HasNull = %v", got)
			}
		}()
	}
	next := base.Append(appendRows())
	wg.Wait()
	if got := hasNull(next); !slices.Equal(got, []bool{false, true, true, true}) {
		t.Fatalf("child of a concurrently read parent: HasNull = %v", got)
	}
}

func TestAppendKeepsCodesStable(t *testing.T) {
	base := sampleTable(t)
	next := base.Append(appendRows())
	// Pre-existing values must keep their codes: "alice" appended again in the
	// delta interns to the same code the base assigned.
	c := next.Col(1)
	if c.Code(0) != c.Code(4) {
		t.Fatalf("re-appended value got a new code: %d vs %d", c.Code(0), c.Code(4))
	}
	for j := 0; j < base.NumCols(); j++ {
		for i := 0; i < base.NumRows(); i++ {
			if base.Col(j).Code(i) != next.Col(j).Code(i) {
				t.Fatalf("col %d row %d code changed across append", j, i)
			}
		}
	}
}

func TestAppendExtendsRanks(t *testing.T) {
	base := New("t", []ColumnDef{{Name: "s", Typ: TString}})
	base.AppendRow(Str("fig"))
	base.AppendRow(Str("pear"))
	// Force the parent's rank table before appending: the child must still
	// rank the newly interned value correctly (fresh rank table, not the
	// parent's stale one).
	_ = base.Col(0).Ranks()
	next := base.Append([][]Value{{Str("apple")}})
	c := next.Col(0)
	ranks := c.Ranks()
	if len(ranks) != c.DictSize()+1 {
		t.Fatalf("rank table covers %d codes, dict has %d", len(ranks)-1, c.DictSize())
	}
	rank := func(row int) uint32 { return ranks[c.Code(row)] }
	if !(rank(2) < rank(0) && rank(0) < rank(1)) {
		t.Fatalf("ranks out of order: apple=%d fig=%d pear=%d", rank(2), rank(0), rank(1))
	}
}

func TestAppendExtendsBuiltImage(t *testing.T) {
	base := sampleTable(t)
	img, _ := base.RowImage() // build the parent's scan image first
	next := base.Append(appendRows())
	got, _ := next.RowImage()
	want := packRows(next.cols, 0, next.NumRows())
	if !bytes.Equal(got, want) {
		t.Fatal("extended image differs from a full repack")
	}
	if again, _ := base.RowImage(); !bytes.Equal(again, img) {
		t.Fatal("parent image changed")
	}
	// And the lazy path (parent image never built) must agree too.
	cold := sampleTable(t).Append(appendRows())
	if coldImg, _ := cold.RowImage(); !bytes.Equal(coldImg, want) {
		t.Fatal("lazily built image differs")
	}
}

func TestDeltaViewSharesDicts(t *testing.T) {
	base := sampleTable(t)
	next := base.Append(appendRows())
	dv := next.DeltaView()
	if dv.NumRows() != 3 || dv.NumCols() != next.NumCols() {
		t.Fatalf("delta view shape = %dx%d", dv.NumRows(), dv.NumCols())
	}
	for j := 0; j < next.NumCols(); j++ {
		if dv.Col(j).dict != next.Col(j).dict {
			t.Fatalf("delta view col %d does not share the dictionary", j)
		}
		for i := 0; i < dv.NumRows(); i++ {
			if dv.Col(j).Code(i) != next.Col(j).Code(next.DeltaStart()+i) {
				t.Fatalf("delta view col %d row %d code mismatch", j, i)
			}
		}
	}
}

func TestAppendChain(t *testing.T) {
	cur := sampleTable(t)
	for step := 0; step < 4; step++ {
		cur = cur.Append(appendRows())
	}
	if cur.NumRows() != 3+4*3 {
		t.Fatalf("chained rows = %d", cur.NumRows())
	}
	if cur.DeltaStart() != cur.NumRows()-3 {
		t.Fatalf("DeltaStart after chain = %d", cur.DeltaStart())
	}
	// Every value decodes correctly through the repeatedly extended dicts.
	for i := 3; i < cur.NumRows(); i += 3 {
		if v := cur.Col(0).Value(i); v.I != 3 {
			t.Fatalf("row %d col 0 = %v", i, v)
		}
	}
}

func TestAppendEmptyIsNoopSnapshot(t *testing.T) {
	base := sampleTable(t)
	next := base.Append(nil)
	if next.NumRows() != base.NumRows() || next.HasDelta() {
		t.Fatalf("empty append: rows=%d hasDelta=%v", next.NumRows(), next.HasDelta())
	}
}

func TestEmptyLikeExtendedFreshRanks(t *testing.T) {
	base := New("t", []ColumnDef{{Name: "n", Typ: TInt64}})
	base.AppendRow(Int(5))
	base.AppendRow(Int(9))
	_ = base.Col(0).Ranks() // freeze the source's rank table
	ext := base.Col(0).EmptyLikeExtended("ext")
	ext.AppendCodes(base.Col(0).Codes())
	ext.Append(Int(7)) // interns into the shared lookup state
	// The source column's view stays at its snapshot size (slice headers are
	// per-dict), preserving old-reader isolation...
	if base.Col(0).DictSize() != 2 || ext.DictSize() != 3 {
		t.Fatalf("dict sizes = %d/%d, want 2/3", base.Col(0).DictSize(), ext.DictSize())
	}
	// ...and the extended column's rank table covers the new code.
	ranks := ext.Ranks()
	if len(ranks) != 4 {
		t.Fatalf("extended rank table covers %d codes", len(ranks)-1)
	}
	if !(ranks[ext.Code(0)] < ranks[ext.Code(2)] && ranks[ext.Code(2)] < ranks[ext.Code(1)]) {
		t.Fatal("extended ranks out of order")
	}
}
