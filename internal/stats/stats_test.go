package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/table"
)

// intTable builds a single-column Int64 table from values.
func intTable(name string, vals ...int64) *table.Table {
	t := table.New(name, []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	for _, v := range vals {
		t.AppendRow(table.Int(v))
	}
	return t
}

// uniformTable builds rows random values in [0, domain).
func uniformTable(rows, domain int, seed int64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	t := table.New("u", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
	})
	for i := 0; i < rows; i++ {
		t.AppendRow(table.Int(int64(r.Intn(domain))), table.Int(int64(r.Intn(7))))
	}
	return t
}

func TestExactNDV(t *testing.T) {
	tb := intTable("t", 1, 2, 2, 3, 3, 3)
	if got := ExactNDV(tb, colset.Of(0)); got != 3 {
		t.Fatalf("ExactNDV = %d, want 3", got)
	}
}

func TestExactNDVMultiColumn(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
	})
	tb.AppendRow(table.Int(1), table.Int(1))
	tb.AppendRow(table.Int(1), table.Int(2))
	tb.AppendRow(table.Int(1), table.Int(1))
	if got := ExactNDV(tb, colset.Of(0, 1)); got != 2 {
		t.Fatalf("pair NDV = %d, want 2", got)
	}
	if got := ExactNDV(tb, colset.Of(0)); got != 1 {
		t.Fatalf("single NDV = %d, want 1", got)
	}
}

func TestSampleCoversSmallTable(t *testing.T) {
	tb := intTable("t", 1, 2, 3)
	s := NewSample(tb, 100, 1)
	if s.Size() != 3 {
		t.Fatalf("sample size = %d, want 3 (whole table)", s.Size())
	}
	p := s.ProfileOf(colset.Of(0))
	if p.Distinct() != 3 {
		t.Fatalf("profile distinct = %d", p.Distinct())
	}
	// Whole-table sample must estimate exactly regardless of estimator.
	for _, e := range []Estimator{GEE, Shlosser, Chao} {
		if got := p.Estimate(e); got != 3 {
			t.Errorf("%v estimate on full sample = %v, want 3", e, got)
		}
	}
}

func TestSampleIsUniformish(t *testing.T) {
	tb := uniformTable(10_000, 100, 9)
	s := NewSample(tb, 1000, 1)
	if s.Size() != 1000 {
		t.Fatalf("sample size = %d", s.Size())
	}
	// A 10% sample of a 100-value uniform domain should see nearly all values.
	p := s.ProfileOf(colset.Of(0))
	if p.Distinct() < 95 {
		t.Fatalf("sample saw only %d of ~100 values", p.Distinct())
	}
}

func TestEstimatorsWithinReasonOnUniform(t *testing.T) {
	// 50k rows over 500 distinct values, sample 2k: all estimators should land
	// within 2x of the truth on uniform data.
	tb := uniformTable(50_000, 500, 11)
	s := NewSample(tb, 2000, 2)
	truth := float64(ExactNDV(tb, colset.Of(0)))
	p := s.ProfileOf(colset.Of(0))
	for _, e := range []Estimator{GEE, Shlosser, Chao} {
		got := p.Estimate(e)
		if got < truth/2 || got > truth*2 {
			t.Errorf("%v estimate = %.0f, truth = %.0f (off by more than 2x)", e, got, truth)
		}
	}
}

func TestEstimateClamping(t *testing.T) {
	p := Profile{N: 100, n: 10, d: 10, Freq: []int{0, 10}}
	for _, e := range []Estimator{GEE, Shlosser, Chao} {
		got := p.Estimate(e)
		if got < 10 || got > 100 {
			t.Errorf("%v estimate %v outside [d, N]", e, got)
		}
	}
}

func TestEstimateEmptyProfile(t *testing.T) {
	p := Profile{N: 100, n: 0, d: 0, Freq: nil}
	if got := p.Estimate(GEE); got != 0 {
		t.Fatalf("empty profile estimate = %v", got)
	}
}

func TestChaoFallbackNoDoubletons(t *testing.T) {
	p := Profile{N: 1000, n: 10, d: 10, Freq: []int{0, 10}}
	got := p.Estimate(Chao)
	if got <= 10 {
		t.Fatalf("Chao fallback should extrapolate beyond d: %v", got)
	}
	if got > 1000 {
		t.Fatalf("Chao fallback exceeded N: %v", got)
	}
}

func TestEstimatorString(t *testing.T) {
	for e, want := range map[Estimator]string{GEE: "GEE", Shlosser: "Shlosser", Chao: "Chao", Exact: "Exact"} {
		if e.String() != want {
			t.Errorf("%d.String() = %q", int(e), e.String())
		}
	}
	if !strings.Contains(Estimator(42).String(), "42") {
		t.Error("unknown estimator should include code")
	}
}

func TestServiceCachesAndAccounts(t *testing.T) {
	tb := uniformTable(5000, 50, 13)
	svc := NewService(GEE, 1000, 1)
	a := svc.NDV(tb, colset.Of(0))
	if a != 50 { // single columns are exact off the dictionary
		t.Fatalf("NDV = %v, want 50", a)
	}
	acct := svc.Accounting()
	if acct.StatsCreated != 1 || acct.SamplesDrawn != 0 || acct.RowsProfiled != 0 {
		t.Fatalf("accounting after single-column call = %+v", acct)
	}
	// Second call on the same set must hit the cache.
	b := svc.NDV(tb, colset.Of(0))
	if b != a {
		t.Fatalf("cached NDV differs: %v vs %v", b, a)
	}
	if got := svc.Accounting().StatsCreated; got != 1 {
		t.Fatalf("cache miss on repeated call: StatsCreated = %d", got)
	}
	// A multi-column set draws the sample; a further one reuses it.
	svc.NDV(tb, colset.Of(0, 1))
	acct = svc.Accounting()
	if acct.StatsCreated != 2 || acct.SamplesDrawn != 1 || acct.RowsProfiled != 1000 {
		t.Fatalf("accounting after pair = %+v", acct)
	}
}

func TestBirthdayEstimate(t *testing.T) {
	// 1000 sampled rows, 900 distinct → 100 collisions → D̂ = 1000·999/200.
	p := Profile{N: 1_000_000, n: 1000, d: 900, Freq: nil}
	got := birthdayEstimate(p, 1_000_000)
	want := 1000.0 * 999 / 200
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("birthdayEstimate = %v, want %v", got, want)
	}
	// Zero collisions are indistinguishable from all-distinct.
	p = Profile{N: 1_000_000, n: 1000, d: 1000}
	if got := birthdayEstimate(p, 1_000_000); got != 1_000_000 {
		t.Fatalf("zero-collision estimate = %v, want N", got)
	}
}

func TestSaturatedSampleFallsBackToBackoff(t *testing.T) {
	// Two near-unique columns: their pair saturates the sample, so the
	// estimate must come out near the row count, not the ~sqrt(N/n)-scaled
	// sample distinct count.
	r := rand.New(rand.NewSource(31))
	tb := table.New("t", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
	})
	n := 60_000
	for i := 0; i < n; i++ {
		tb.AppendRow(table.Int(int64(r.Intn(n))), table.Int(int64(r.Intn(n))))
	}
	svc := NewService(GEE, 2000, 1)
	got := svc.NDV(tb, colset.Of(0, 1))
	if got < float64(n)*0.6 {
		t.Fatalf("saturated pair NDV = %v, want near %d", got, n)
	}
}

// TestNDVCountsNullGroup: Group By treats NULL as one group, so single-column
// NDVs and the sandwich bounds count it. Counting dictionary values alone put
// {1, NULL} at 1, its pair with a 3-valued column at 3, and an all-NULL
// column at 0 alone and in every set holding it.
func TestNDVCountsNullGroup(t *testing.T) {
	tb := table.New("nulls", []table.ColumnDef{
		{Name: "half", Typ: table.TInt64},
		{Name: "three", Typ: table.TInt64},
		{Name: "none", Typ: table.TInt64},
	})
	for i := 0; i < 50_000; i++ {
		half := table.Int(1)
		if i%2 == 1 {
			half = table.Null(table.TInt64)
		}
		tb.AppendRow(half, table.Int(int64(i%3)), table.Null(table.TInt64))
	}
	for _, e := range []Estimator{GEE, Shlosser, Chao, Exact} {
		svc := NewService(e, 10_000, 1)
		for _, set := range []colset.Set{colset.Of(0), colset.Of(2), colset.Of(0, 1), colset.Of(0, 2), colset.Of(1, 2), colset.Of(0, 1, 2)} {
			if got, want := svc.NDV(tb, set), float64(ExactNDV(tb, set)); got != want {
				t.Errorf("%v %v: NDV = %v, exact = %v", e, set, got, want)
			}
		}
	}
	svc := NewService(GEE, 10_000, 1)
	for c, want := range []float64{2, 3, 1} {
		if got, _ := svc.CachedNDV(tb, colset.Of(c)); got != want {
			t.Errorf("CachedNDV(column %d) = %v, want %v", c, got, want)
		}
	}
}

func TestServiceEmptySet(t *testing.T) {
	tb := intTable("t", 1, 2)
	svc := NewService(GEE, 10, 1)
	if got := svc.NDV(tb, colset.Set(0)); got != 1 {
		t.Fatalf("empty-set NDV = %v, want 1", got)
	}
}

func TestServiceExactEstimator(t *testing.T) {
	tb := intTable("t", 1, 2, 2, 3)
	svc := NewService(Exact, 2, 1)
	if got := svc.NDV(tb, colset.Of(0)); got != 3 {
		t.Fatalf("Exact NDV = %v, want 3", got)
	}
}

func TestServiceInvalidate(t *testing.T) {
	tb := intTable("t", 1, 2, 3)
	svc := NewService(Exact, 10, 1)
	svc.NDV(tb, colset.Of(0))
	svc.Invalidate("t")
	svc.ResetAccounting()
	svc.NDV(tb, colset.Of(0))
	if got := svc.Accounting().StatsCreated; got != 1 {
		t.Fatalf("invalidate did not drop cache: created = %d", got)
	}
}

func TestNDVSupersetAtLeastSubset(t *testing.T) {
	// Estimated NDV of a superset should not be (much) below a subset — with
	// the same sample both profiles come from the same rows, so the observed
	// distinct counts are monotone, and clamping keeps estimates ordered
	// within estimator noise.
	tb := uniformTable(20_000, 200, 17)
	svc := NewService(GEE, 2000, 3)
	sub := svc.NDV(tb, colset.Of(1))
	super := svc.NDV(tb, colset.Of(0, 1))
	if super < sub*0.8 {
		t.Fatalf("superset NDV %v below subset NDV %v", super, sub)
	}
}

func TestHistogramExactDomain(t *testing.T) {
	tb := intTable("t", 1, 1, 2, 3, 3, 3)
	h := BuildHistogram(tb, 0, 4)
	if h.Distinct() != 3 || h.Rows() != 6 {
		t.Fatalf("histogram = %v", h)
	}
	if got := h.Selectivity(CmpEq, table.Int(3)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("sel(=3) = %v, want 0.5", got)
	}
	if got := h.Selectivity(CmpLt, table.Int(2)); math.Abs(got-2.0/6) > 1e-9 {
		t.Fatalf("sel(<2) = %v, want 1/3", got)
	}
	if got := h.Selectivity(CmpGe, table.Int(2)); math.Abs(got-4.0/6) > 1e-9 {
		t.Fatalf("sel(>=2) = %v, want 2/3", got)
	}
	if got := h.Selectivity(CmpNe, table.Int(1)); math.Abs(got-4.0/6) > 1e-9 {
		t.Fatalf("sel(<>1) = %v, want 2/3", got)
	}
}

func TestHistogramNulls(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	tb.AppendRow(table.Int(1))
	tb.AppendRow(table.Null(table.TInt64))
	tb.AppendRow(table.Null(table.TInt64))
	tb.AppendRow(table.Int(5))
	h := BuildHistogram(tb, 0, 4)
	if got := h.NullFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("null fraction = %v", got)
	}
	// NULLs never satisfy comparisons.
	if got := h.Selectivity(CmpGe, table.Int(0)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("sel(>=0) = %v, want 0.5", got)
	}
}

func TestHistogramBucketedDomain(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tb := table.New("t", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	for i := 0; i < 20_000; i++ {
		tb.AppendRow(table.Int(int64(r.Intn(5000))))
	}
	h := BuildHistogram(tb, 0, 32)
	if h.exact != nil {
		t.Fatal("large domain should use buckets")
	}
	if !strings.Contains(h.String(), "buckets=") {
		t.Fatalf("String = %q", h.String())
	}
	// Median split should be near 0.5 (within bucket resolution).
	got := h.Selectivity(CmpLt, table.Int(2500))
	if got < 0.4 || got > 0.6 {
		t.Fatalf("sel(<median) = %v, want ≈0.5", got)
	}
	// Range sanity: sel(<0) ≈ 0, sel(<5001) = 1.
	if got := h.Selectivity(CmpLt, table.Int(0)); got > 0.01 {
		t.Fatalf("sel(<0) = %v", got)
	}
	if got := h.Selectivity(CmpLe, table.Int(5001)); got < 0.99 {
		t.Fatalf("sel(<=max) = %v", got)
	}
}

func TestHistogramEmptyTable(t *testing.T) {
	tb := table.New("t", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	h := BuildHistogram(tb, 0, 4)
	if h.Selectivity(CmpEq, table.Int(1)) != 0 || h.NullFraction() != 0 {
		t.Fatal("empty table selectivity should be 0")
	}
}

func TestCmpOpEvalAndString(t *testing.T) {
	if !CmpLt.Eval(table.Int(1), table.Int(2)) || CmpLt.Eval(table.Int(2), table.Int(2)) {
		t.Fatal("CmpLt.Eval wrong")
	}
	for op, want := range map[CmpOp]string{CmpEq: "=", CmpNe: "<>", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

func TestSampleDeterminism(t *testing.T) {
	tb := uniformTable(5000, 100, 23)
	a := NewSample(tb, 500, 7)
	b := NewSample(tb, 500, 7)
	pa, pb := a.ProfileOf(colset.Of(0)), b.ProfileOf(colset.Of(0))
	if pa.Distinct() != pb.Distinct() {
		t.Fatalf("samples differ across runs: %d vs %d", pa.Distinct(), pb.Distinct())
	}
}
