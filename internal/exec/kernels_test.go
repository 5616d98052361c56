package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"gbmqo/internal/table"
)

// kernelTable builds a table whose two key columns have a controlled number
// of distinct values, optionally Zipf-skewed, plus int and float aggregate
// columns. Float values are multiples of 0.25 so summation order cannot
// change the result bits — the parallel kernels' float output is then exact,
// and the differential tests can demand byte identity.
func kernelTable(rows, ndvA, ndvB int, zipf float64, seed int64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	t := table.New("kt", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TString},
		{Name: "v", Typ: table.TInt64},
		{Name: "x", Typ: table.TFloat64},
	})
	var za, zb *rand.Zipf
	if zipf > 1 {
		za = rand.NewZipf(r, zipf, 1, uint64(ndvA-1))
		zb = rand.NewZipf(r, zipf, 1, uint64(ndvB-1))
	}
	draw := func(z *rand.Zipf, ndv int) int {
		if z != nil {
			return int(z.Uint64())
		}
		return r.Intn(ndv)
	}
	for i := 0; i < rows; i++ {
		a := table.Int(int64(draw(za, ndvA)))
		if r.Intn(16) == 0 {
			a = table.Null(table.TInt64)
		}
		b := table.Str(fmt.Sprintf("k%d", draw(zb, ndvB)))
		v := table.Int(int64(r.Intn(1000)))
		x := table.Float(float64(r.Intn(4000)) / 4)
		if r.Intn(13) == 0 {
			x = table.Null(table.TFloat64)
		}
		t.AppendRow(a, b, v, x)
	}
	return t
}

// kernelAggs exercises every accumulator kind.
func kernelAggs() []Agg {
	return []Agg{
		CountStar(),
		{Kind: AggCount, Col: 3, Name: "cx"},
		{Kind: AggSum, Col: 2, Name: "sv"},
		{Kind: AggSum, Col: 3, Name: "sx"},
		{Kind: AggMin, Col: 2, Name: "mn"},
		{Kind: AggMax, Col: 3, Name: "mx"},
		{Kind: AggAvg, Col: 3, Name: "ax"},
	}
}

// dumpTable renders schema and every row so equality means byte identity:
// same columns, same types, same row order, same values (floats included).
func dumpTable(t *table.Table) string {
	var b strings.Builder
	for c := 0; c < t.NumCols(); c++ {
		col := t.Col(c)
		fmt.Fprintf(&b, "%s:%v|", col.Name(), col.Type())
	}
	b.WriteByte('\n')
	for i := 0; i < t.NumRows(); i++ {
		for c := 0; c < t.NumCols(); c++ {
			v := t.Col(c).Value(i)
			if v.Null {
				b.WriteString("NULL")
			} else if v.Typ == table.TFloat64 {
				fmt.Fprintf(&b, "%.17g", v.F)
			} else {
				b.WriteString(v.String())
			}
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestKernelsByteIdenticalToHash is the randomized differential suite: every
// kernel at one and at four workers × data shapes (low/high NDV, Zipf skew,
// a key domain too wide for dense, duplicate-heavy, empty, single-group) must
// reproduce the reference hash kernel's output exactly — schema,
// first-appearance row order, and value bits.
func TestKernelsByteIdenticalToHash(t *testing.T) {
	cases := []struct {
		name             string
		rows, ndvA, ndvB int
		zipf             float64
		seed             int64
	}{
		{name: "low-ndv", rows: 20000, ndvA: 5, ndvB: 4, seed: 1},
		{name: "high-ndv", rows: 40000, ndvA: 500, ndvB: 400, seed: 2},
		{name: "skewed", rows: 40000, ndvA: 300, ndvB: 200, zipf: 1.5, seed: 3},
		{name: "dup-heavy", rows: 40000, ndvA: 2, ndvB: 2, seed: 4},
		{name: "single-group", rows: 8192, ndvA: 1, ndvB: 1, seed: 5},
		{name: "empty", rows: 0, ndvA: 1, ndvB: 1, seed: 6},
		{name: "parallel-scale", rows: 60000, ndvA: 64, ndvB: 32, zipf: 1.3, seed: 7},
		// Dense cannot apply (domain 2049² > denseMaxDomain), so a parallel
		// request runs parallel hash over tens of thousands of groups.
		{name: "wide-uniform", rows: 70000, ndvA: 2048, ndvB: 2048, seed: 8},
		{name: "wide-skewed", rows: 70000, ndvA: 2048, ndvB: 2048, zipf: 1.5, seed: 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := kernelTable(tc.rows, tc.ndvA, tc.ndvB, tc.zipf, tc.seed)
			groupCols := []int{0, 1}
			aggs := kernelAggs()
			want := dumpTable(GroupByHash(src, groupCols, aggs, "ref"))
			gov := NewGov(context.Background(), NewMemBudget(0))

			check := func(kernel string, got *table.Table, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", kernel, err)
				}
				if d := dumpTable(got); d != want {
					t.Errorf("%s output differs from hash reference\nhash:\n%s\n%s:\n%s", kernel, want, kernel, d)
				}
			}

			out, _, err := runGroupBy(gov, src, groupCols, aggs, 1, tc.ndvA*tc.ndvB, false)
			check("hash-presized", out, err)

			sorted, err := GroupBySortGov(gov, src, groupCols, aggs, "g")
			check("sort", sorted, err)

			if DenseDomain(src, groupCols) != 0 {
				out, ks, err := denseGroupBy(gov, src, groupCols, aggs, 1)
				check("dense-seq", out, err)
				if err == nil && ks.Kind != KernelDense {
					t.Errorf("dense-seq ran kind %v", ks.Kind)
				}
				out, _, err = denseGroupBy(gov, src, groupCols, aggs, 4)
				check("dense-par", out, err)
			}

			outs, _, err := sharedScan(gov, src, []MultiQuery{{GroupCols: groupCols, Aggs: aggs, OutName: "g"}}, 4)
			check("parallel-hash", outs[0], err)

			// The adaptive entry point must agree too, whatever rung it picks.
			for _, hints := range []AdaptiveHints{
				{},
				{NDV: float64(tc.ndvA * tc.ndvB), Workers: 4},
				{NDV: 100000, Workers: 4}, // inflated estimate oversizes the hash table
			} {
				out, ks, err := GroupByAdaptiveGov(gov, src, groupCols, aggs, "g", hints)
				check(fmt.Sprintf("adaptive(%+v→%v)", hints, ks.Kind), out, err)
			}

			if used := gov.Budget().Used(); used != 0 {
				t.Errorf("budget not drained after kernels: %d bytes still charged", used)
			}
		})
	}
}

// runGroupBy runs one query through the group-by driver at w workers, with
// its table presized for sizeHint groups and started in dense mode when
// dense is set.
func runGroupBy(gov *Gov, src *table.Table, groupCols []int, aggs []Agg, w, sizeHint int, dense bool) (*table.Table, KernelStats, error) {
	outs, stats, err := groupBy(gov, src, []MultiQuery{{GroupCols: groupCols, Aggs: aggs, OutName: "g", SizeHint: sizeHint, dense: dense}}, w)
	if err != nil {
		return nil, KernelStats{}, err
	}
	return outs[0], stats[0], nil
}

// denseGroupBy runs one query on the dense key mode at w workers.
func denseGroupBy(gov *Gov, src *table.Table, groupCols []int, aggs []Agg, w int) (*table.Table, KernelStats, error) {
	return runGroupBy(gov, src, groupCols, aggs, w, 0, true)
}

// TestDenseKernelRejectsWideDomains pins the applicability contract: a
// group-code domain over denseMaxDomain has no dense mode, so a dense request
// runs on a hashed key mode, reports hash, and aggregates correctly.
func TestDenseKernelRejectsWideDomains(t *testing.T) {
	src := kernelTable(4096, 2000, 2000, 0, 9)
	if d := DenseDomain(src, []int{0, 1}); d != 0 {
		t.Fatalf("DenseDomain = %d, want 0 for a %d-value domain", d, 2001*2001)
	}
	gov := NewGov(context.Background(), NewMemBudget(0))
	out, ks, err := denseGroupBy(gov, src, []int{0, 1}, kernelAggs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Kind != KernelHash {
		t.Errorf("dense request over an oversized domain ran %v, want hash", ks.Kind)
	}
	if got, want := dumpTable(out), dumpTable(GroupByHash(src, []int{0, 1}, kernelAggs(), "g")); got != want {
		t.Errorf("output differs from the hash kernel\nhash:\n%s\ngot:\n%s", want, got)
	}
}

// TestKernelFailpointsSurfaceTypedErrors drives the parallel driver's sites:
// a panic injected in a worker's block loop (dense mode) or at a worker's
// start (hash mode) must surface as a typed *ExecError naming the failing
// worker, with the budget fully released.
func TestKernelFailpointsSurfaceTypedErrors(t *testing.T) {
	src := kernelTable(50000, 300, 200, 0, 11)
	groupCols := []int{0, 1}
	aggs := kernelAggs()
	cases := []struct {
		site     string
		wantStep string
		run      func(gov *Gov) error
	}{
		{"exec.hash.batch", "share worker", func(gov *Gov) error {
			_, _, err := denseGroupBy(gov, src, groupCols, aggs, 4)
			return err
		}},
		{"exec.share.worker", "share worker", func(gov *Gov) error {
			_, _, err := sharedScan(gov, src, []MultiQuery{{GroupCols: groupCols, Aggs: aggs, OutName: "g"}}, 4)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			var fired atomic.Int64
			Testing.SetFailPoint(func(site string) {
				if site == tc.site && fired.Add(1) == 2 {
					panic("injected kernel fault")
				}
			})
			defer Testing.ClearFailPoint()
			budget := NewMemBudget(1 << 30)
			gov := NewGov(context.Background(), budget)
			err := tc.run(gov)
			var ee *ExecError
			if !errors.As(err, &ee) {
				t.Fatalf("err = %v, want *ExecError", err)
			}
			if !strings.Contains(ee.Step, tc.wantStep) {
				t.Errorf("Step = %q, want it to contain %q", ee.Step, tc.wantStep)
			}
			if used := budget.Used(); used != 0 {
				t.Errorf("budget leaked %d bytes after injected fault", used)
			}
		})
	}
}

// TestKernelCancellation pins that the dense key mode honors governor
// cancellation between blocks.
func TestKernelCancellation(t *testing.T) {
	src := kernelTable(50000, 300, 200, 0, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gov := NewGov(ctx, NewMemBudget(0))
	if _, _, err := denseGroupBy(gov, src, []int{0, 1}, kernelAggs(), 1); !errors.Is(err, context.Canceled) {
		t.Errorf("dense: err = %v, want context.Canceled", err)
	}
}

// TestPresizeAvoidsRehashes pins the satellite: with an accurate NDV hint the
// group table never doubles, and the avoided doublings are reported.
func TestPresizeAvoidsRehashes(t *testing.T) {
	src := kernelTable(40000, 500, 400, 0, 13)
	gov := NewGov(context.Background(), NewMemBudget(0))
	groupCols := []int{0, 1}
	aggs := []Agg{CountStar()}
	_, unsized, err := runGroupBy(gov, src, groupCols, aggs, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	_, sized, err := runGroupBy(gov, src, groupCols, aggs, 1, unsized.Groups, false)
	if err != nil {
		t.Fatal(err)
	}
	if unsized.RehashesAvoided != 0 {
		t.Errorf("unsized run reports %d avoided rehashes, want 0", unsized.RehashesAvoided)
	}
	if sized.RehashesAvoided == 0 {
		t.Errorf("presized run over %d groups avoided no rehashes", sized.Groups)
	}
}
