package exec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gbmqo/internal/table"
)

// widthTable builds a table whose key columns k0..kn-1 have exactly the given
// dictionary sizes (so each key column's packed width is bits.Len32(size)),
// followed by an int column v and a float column x of multiples of 0.25.
// Rows draw their key tuple from a pool of `tuples` tuples mixing the all-NULL
// tuple, per-column NULLs and each column's top code (the code that sets its
// highest packed bit), so groups repeat and every field boundary is hit.
func widthTable(rows, tuples int, dictSizes []int, seed int64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	pool := make([][]uint32, tuples)
	for i := range pool {
		tup := make([]uint32, len(dictSizes))
		if i > 0 { // tuple 0 is all-NULL: packed key 0
			for k, size := range dictSizes {
				switch r.Intn(4) {
				case 0:
					tup[k] = 0
				case 1:
					tup[k] = uint32(size)
				default:
					tup[k] = uint32(1 + r.Intn(size))
				}
			}
		}
		pool[i] = tup
	}
	keyCodes := make([][]uint32, len(dictSizes))
	vs, xs := make([]table.Value, rows), make([]table.Value, rows)
	for i := 0; i < rows; i++ {
		tup := pool[r.Intn(len(pool))]
		for k := range dictSizes {
			keyCodes[k] = append(keyCodes[k], tup[k])
		}
		vs[i] = table.Int(int64(r.Intn(1000)))
		if r.Intn(13) == 0 {
			xs[i] = table.Null(table.TFloat64)
		} else {
			xs[i] = table.Float(float64(r.Intn(4000)) / 4)
		}
	}
	b := table.NewBuilder("wt", rows, len(dictSizes)+2)
	for k, size := range dictSizes {
		dictVals := make([]table.Value, size)
		for i := range dictVals {
			dictVals[i] = table.Int(int64(i))
		}
		if _, err := b.AddParts(table.ColumnDef{Name: fmt.Sprintf("k%d", k), Typ: table.TInt64}, dictVals, keyCodes[k]); err != nil {
			panic(err)
		}
	}
	v, x := b.Add(table.ColumnDef{Name: "v", Typ: table.TInt64}), b.Add(table.ColumnDef{Name: "x", Typ: table.TFloat64})
	for i := range rows {
		b.SetValue(i, v, vs[i])
		b.SetValue(i, x, xs[i])
	}
	return b.Table()
}

// widthAggs exercises every accumulator kind over widthTable's v and x.
func widthAggs(nKeys int) []Agg {
	v, x := nKeys, nKeys+1
	return []Agg{
		CountStar(),
		{Kind: AggCount, Col: x, Name: "cx"},
		{Kind: AggSum, Col: v, Name: "sv"},
		{Kind: AggSum, Col: x, Name: "sx"},
		{Kind: AggMin, Col: v, Name: "mn"},
		{Kind: AggMax, Col: x, Name: "mx"},
		{Kind: AggAvg, Col: x, Name: "ax"},
	}
}

func repeatSize(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// TestKernelPackedKeyMatchesWide is the differential for the packed-key group
// table: key widths straddling 64 bits (dictionaries of 2^k−1 and 2^k values),
// NULL and all-NULL keys, empty and single-group tables, and enough wide
// columns to force the wide path. Every hash entry point — sequential,
// shared scan, parallel shares plus merge — must reproduce the sort kernel,
// which shares no code with the group table, cell by cell.
func TestKernelPackedKeyMatchesWide(t *testing.T) {
	cases := []struct {
		name         string
		rows, tuples int
		dictSizes    []int
		wide         bool
	}{
		{name: "63-bits", rows: 3000, tuples: 200, dictSizes: repeatSize(7, 1<<9-1)},
		{name: "64-bits", rows: 3000, tuples: 200, dictSizes: repeatSize(8, 1<<8-1)},
		{name: "64-bits-pow2", rows: 3000, tuples: 200, dictSizes: append([]int{1 << 8, 1<<7 - 1}, repeatSize(6, 1<<8-1)...)},
		{name: "65-bits", rows: 3000, tuples: 200, dictSizes: append([]int{1 << 8}, repeatSize(7, 1<<8-1)...), wide: true},
		{name: "five-wide-columns", rows: 3000, tuples: 300, dictSizes: repeatSize(5, 1<<13), wide: true},
		{name: "single-column", rows: 3000, tuples: 50, dictSizes: []int{1 << 16}},
		{name: "null-heavy", rows: 2000, tuples: 3, dictSizes: repeatSize(3, 1<<4)},
		{name: "single-group", rows: 1000, tuples: 1, dictSizes: repeatSize(8, 1<<8-1)},
		{name: "empty", rows: 0, tuples: 1, dictSizes: repeatSize(8, 1<<8-1)},
		{name: "empty-wide", rows: 0, tuples: 1, dictSizes: repeatSize(5, 1<<13), wide: true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := widthTable(tc.rows, tc.tuples, tc.dictSizes, int64(100+i))
			keys := make([]int, len(tc.dictSizes))
			for k := range keys {
				keys[k] = k
			}
			if h := newGroupHash(src, keys, nil, 0, false); (h.mode == keyWide) != tc.wide {
				t.Fatalf("wide = %v, want %v for dictionary sizes %v", h.mode == keyWide, tc.wide, tc.dictSizes)
			}
			aggs := widthAggs(len(keys))
			reversed := make([]int, len(keys))
			for k := range keys {
				reversed[k] = keys[len(keys)-1-k]
			}
			queries := []MultiQuery{
				{GroupCols: keys, Aggs: aggs, OutName: "full"},
				{GroupCols: reversed, Aggs: aggs, OutName: "reversed"},
				{GroupCols: keys[:1], Aggs: aggs, OutName: "first"},
			}
			gov := NewGov(context.Background(), NewMemBudget(0))
			want := make([]string, len(queries))
			for qi, q := range queries {
				ref, err := GroupBySortGov(gov, src, q.GroupCols, q.Aggs, "g")
				if err != nil {
					t.Fatal(err)
				}
				want[qi] = dumpTable(ref)
			}
			check := func(path string, qi int, got *table.Table, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if d := dumpTable(got); d != want[qi] {
					t.Errorf("%s query %s differs from the sort kernel\nsort:\n%s\n%s:\n%s", path, queries[qi].OutName, want[qi], path, d)
				}
			}

			for qi, q := range queries {
				out, err := GroupByHashGov(gov, src, q.GroupCols, q.Aggs, "g")
				check("hash", qi, out, err)
			}
			outs, _, err := sharedScan(gov, src, queries, 1)
			if err != nil {
				t.Fatalf("shared scan: %v", err)
			}
			for qi := range queries {
				check("shared-scan", qi, outs[qi], nil)
			}
			outs, _, err = groupBy(gov, src, queries, 3)
			if err != nil {
				t.Fatalf("shares: %v", err)
			}
			for qi := range queries {
				check("shares", qi, outs[qi], nil)
			}
			if used := gov.Budget().Used(); used != 0 {
				t.Errorf("budget not drained: %d bytes still charged", used)
			}
		})
	}
}

// plantedTable builds two key columns with dictionary sizes 3 (packed width 2
// each, dense domain 4×4) whose rows carry raw codes that break the width
// invariant: a=4 spills into b's bits, so the rows (a=4, b=0) and (a=0, b=1)
// pack — and fold densely — to the same key, and (8, 3) folds past the dense
// domain. badFirst puts a violating row first, before any group exists. The
// row list repeats reps times.
func plantedTable(badFirst bool, reps int) *table.Table {
	rows := plantedRows
	if badFirst {
		rows = append([][2]uint32{{4, 0}}, rows...)
	}
	var all [][2]uint32
	for i := 0; i < reps; i++ {
		all = append(all, rows...)
	}
	return codeTable(all)
}

// plantedRows is plantedTable's row list: valid tuples mixed with the
// violating (4, 0) and (8, 3).
var plantedRows = [][2]uint32{{0, 1}, {4, 0}, {1, 2}, {0, 1}, {4, 0}, {4, 0}, {8, 3}, {0, 3}, {0, 1}, {2, 2}}

// codeTable builds plantedTable's two key columns a and b, each over a
// three-value dictionary, from raw code tuples written with Builder.Set.
func codeTable(rows [][2]uint32) *table.Table {
	dictVals := []table.Value{table.Int(10), table.Int(20), table.Int(30)}
	b := table.NewBuilder("planted", len(rows), 2)
	for k, name := range []string{"a", "b"} {
		if _, err := b.AddParts(table.ColumnDef{Name: name, Typ: table.TInt64}, dictVals, make([]uint32, len(rows))); err != nil {
			panic(err)
		}
		for i, r := range rows {
			b.Set(i, k, r[k])
		}
	}
	return b.Table()
}

// checkKeyCounts asserts out holds one row per distinct raw code tuple of
// src's first two columns, keyed by its own first two columns in
// first-appearance order, each with its true COUNT(*) in column 2.
func checkKeyCounts(t *testing.T, path string, src, out *table.Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	want := map[[2]uint32]int64{}
	var order [][2]uint32
	for r := 0; r < src.NumRows(); r++ {
		key := [2]uint32{src.Col(0).Code(r), src.Col(1).Code(r)}
		if want[key] == 0 {
			order = append(order, key)
		}
		want[key]++
	}
	if out.NumRows() != len(want) {
		t.Fatalf("%s: %d groups, want %d", path, out.NumRows(), len(want))
	}
	for r := 0; r < out.NumRows(); r++ {
		key := [2]uint32{out.Col(0).Code(r), out.Col(1).Code(r)}
		if key != order[r] {
			t.Errorf("%s: group %d is %v, want %v (first-appearance order)", path, r, key, order[r])
		}
		if got := out.Col(2).Value(r).I; got != want[key] {
			t.Errorf("%s: group %v count %d, want %d", path, key, got, want[key])
		}
	}
}

// TestKernelPackedKeyGuardNeverMerges plants codes above their column's
// dictionary size with Builder.Set: packing them would silently merge two
// groups. The group table must switch to wide keys instead, so every hash
// entry point returns the true group count with the true count per code
// tuple.
func TestKernelPackedKeyGuardNeverMerges(t *testing.T) {
	for _, badFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("badFirst=%v", badFirst), func(t *testing.T) {
			src := plantedTable(badFirst, 1)
			cols := []int{0, 1}

			// The plant is only a test of the guard if packing collides.
			h := newGroupHash(src, cols, nil, 0, false)
			if h.mode != keyPacked {
				t.Fatal("planted table should start on the packed path")
			}
			keyOf := func(a, b uint32) uint64 { return uint64(a)*h.mults[0] + uint64(b)*h.mults[1] }
			if keyOf(4, 0) != keyOf(0, 1) {
				t.Fatal("planted codes do not collide when packed")
			}
			for r := 0; r < src.NumRows(); r++ {
				h.groupOf(r)
			}
			if h.mode != keyWide {
				t.Error("group table stayed packed over codes wider than their dictionaries")
			}

			gov := NewGov(context.Background(), NewMemBudget(0))
			aggs := []Agg{CountStar()}
			out, err := GroupByHashGov(gov, src, cols, aggs, "g")
			checkKeyCounts(t, "hash", src, out, err)
			q := []MultiQuery{{GroupCols: cols, Aggs: aggs, OutName: "g"}}
			outs, _, err := sharedScan(gov, src, q, 1)
			if err != nil {
				t.Fatalf("shared scan: %v", err)
			}
			checkKeyCounts(t, "shared-scan", src, outs[0], nil)
			outs, _, err = groupBy(gov, src, q, 2)
			if err != nil {
				t.Fatalf("shares: %v", err)
			}
			checkKeyCounts(t, "shares", src, outs[0], nil)
		})
	}
}

// TestKernelDenseGuardNeverMerges plants the same out-of-dictionary codes
// under the dense key mode, whose mixed-radix fold would alias (4, 0) onto
// (0, 1) and index (8, 3) past its group-id array. Sequential dense, parallel
// dense and the adaptive entry point (which picks dense at one worker) must
// each notice, widen the table, report hash, and return the true groups.
func TestKernelDenseGuardNeverMerges(t *testing.T) {
	for _, badFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("badFirst=%v", badFirst), func(t *testing.T) {
			small := plantedTable(badFirst, 1)
			large := plantedTable(badFirst, 7000) // ≥ denseMinRows: a parallel dense run
			cols := []int{0, 1}
			h := newGroupHash(small, cols, nil, 0, true)
			if h.mode != keyDense {
				t.Fatal("planted table should start on the dense path")
			}
			if fold := func(a, b uint64) uint64 { return a*h.mults[0] + b*h.mults[1] }; fold(4, 0) != fold(0, 1) {
				t.Fatal("planted codes do not alias in the dense fold")
			}
			aggs := []Agg{CountStar()}
			budget := NewMemBudget(0)
			gov := NewGov(context.Background(), budget)
			run := func(path string, src *table.Table, fn func() (*table.Table, KernelStats, error)) {
				t.Helper()
				out, ks, err := fn()
				checkKeyCounts(t, path, src, out, err)
				if ks.Kind != KernelHash {
					t.Errorf("%s: reported %v after the dense guard tripped, want hash", path, ks.Kind)
				}
			}
			run("dense-seq", small, func() (*table.Table, KernelStats, error) {
				return denseGroupBy(gov, small, cols, aggs, 1)
			})
			run("dense-par", large, func() (*table.Table, KernelStats, error) {
				return denseGroupBy(gov, large, cols, aggs, 4)
			})
			run("adaptive-seq", small, func() (*table.Table, KernelStats, error) {
				return GroupByAdaptiveGov(gov, small, cols, aggs, "g", AdaptiveHints{})
			})
			run("adaptive-par", large, func() (*table.Table, KernelStats, error) {
				return GroupByAdaptiveGov(gov, large, cols, aggs, "g", AdaptiveHints{NDV: 16, Workers: 4})
			})
			if used := budget.Used(); used != 0 {
				t.Errorf("budget not drained: %d bytes still charged", used)
			}
		})
	}
}

// TestKernelWidensInsideOneShare plants out-of-dictionary codes only at the
// end of the input, so at w workers only the last share meets them: that
// share widens its own table, the others stay in their starting key mode, and
// the merge must widen the first share's table when the planted groups reach
// it. The adaptive entry point (which starts dense) and the shared scan
// (which starts packed) must both return the true groups in first-appearance
// order, report hash, and drain the budget.
func TestKernelWidensInsideOneShare(t *testing.T) {
	const n = 4 * shareMinRows // ≥ denseMinRows: a parallel dense pick at w = 2 and 4
	rows := make([][2]uint32, 0, n)
	for i := 0; len(rows) < n-len(plantedRows); i++ {
		rows = append(rows, [2]uint32{uint32(i % 4), uint32(i / 4 % 4)})
	}
	src := codeTable(append(rows, plantedRows...))
	cols, aggs := []int{0, 1}, []Agg{CountStar()}
	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			budget := NewMemBudget(0)
			gov := NewGov(context.Background(), budget)
			out, ks, err := GroupByAdaptiveGov(gov, src, cols, aggs, "g", AdaptiveHints{Workers: w})
			checkKeyCounts(t, "adaptive", src, out, err)
			if ks.Kind != KernelHash || ks.Workers != w || !strings.Contains(ks.Reason, "dense guard") {
				t.Errorf("adaptive: ran %v on %d workers (%s), want a widened dense pick on %d", ks.Kind, ks.Workers, ks.Reason, w)
			}
			outs, stats, err := sharedScan(gov, src, []MultiQuery{{GroupCols: cols, Aggs: aggs, OutName: "g"}}, w)
			if err != nil {
				t.Fatalf("shared scan: %v", err)
			}
			checkKeyCounts(t, "shared-scan", src, outs[0], nil)
			if stats[0].Kind != KernelHash || stats[0].Workers != w {
				t.Errorf("shared scan: ran %v on %d workers, want hash on %d", stats[0].Kind, stats[0].Workers, w)
			}
			if used := budget.Used(); used != 0 {
				t.Errorf("budget not drained: %d bytes still charged", used)
			}
		})
	}
}
