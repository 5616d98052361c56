package stats

import (
	"math/rand"
	"slices"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/table"
)

// appendRows returns t with rows [lo, hi) of src appended.
func appendRows(t, src *table.Table, lo, hi int) *table.Table {
	rows := make([][]table.Value, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := make([]table.Value, src.NumCols())
		for c := range row {
			row[c] = src.Col(c).Value(r)
		}
		rows = append(rows, row)
	}
	return t.Append(rows)
}

// ledgerSets is a seeded mix of multi-column sets over lineitem.
func ledgerSets(tb *table.Table) []colset.Set {
	var sets []colset.Set
	for _, s := range randomSets(rand.New(rand.NewSource(5)), tb.NumCols(), 40) {
		if s.Len() > 1 {
			sets = append(sets, s)
		}
	}
	return sets
}

// coldNDV is what a fresh service with the same configuration answers.
func coldNDV(t *testing.T, svc *Service, tb *table.Table, sets []colset.Set) []float64 {
	t.Helper()
	cold := NewService(svc.estimator, svc.sampleSize, svc.seed)
	out := make([]float64, len(sets))
	for i, set := range sets {
		out[i] = cold.NDV(tb, set)
	}
	return out
}

// TestLedgerServesWithinFraction: an append below staleFraction of the
// sampled rows keeps every statistic. Each is served without a sample or a
// profile, inside [v, v+Δ] and the new snapshot's sandwich, and a reader
// still holding the old snapshot gets the value as built.
func TestLedgerServesWithinFraction(t *testing.T) {
	base := datagen.Lineitem(datagen.LineitemOpts{Rows: 20_000, Seed: 1})
	src := datagen.Lineitem(datagen.LineitemOpts{Rows: 1_000, Seed: 9})
	sets := ledgerSets(base)
	svc := NewService(GEE, 2_000, 1)
	built := make([]float64, len(sets))
	for i, set := range sets {
		built[i] = svc.NDV(base, set)
	}
	next := appendRows(base, src, 0, 1_000) // 5%
	svc.Advance(base, next)
	before := svc.Accounting()
	for i, set := range sets {
		got := svc.NDV(next, set)
		lo, hi := sandwich(next, set)
		if got < max(built[i], lo) || got > min(built[i]+1_000, hi) {
			t.Fatalf("%v: served %v, built %v, bounds [%v, %v]", set, got, built[i], lo, hi)
		}
		if old := svc.NDV(base, set); old != built[i] {
			t.Fatalf("%v: the old snapshot is served %v, built %v", set, old, built[i])
		}
		if cached, ok := svc.CachedNDV(next, set); !ok || cached != got {
			t.Fatalf("%v: CachedNDV = %v, %v; NDV %v", set, cached, ok, got)
		}
	}
	if acct := svc.Accounting(); acct != before {
		t.Fatalf("serving across an append below the fraction built statistics: %+v, was %+v", acct, before)
	}
	if svc.Retained() != 1 {
		t.Fatalf("%d ledgers, want 1", svc.Retained())
	}
}

// TestLedgerReprofilesPastFraction: past staleFraction the sample is brought
// forward once, and every statistic profiled again equals a cold service's
// over the new snapshot, for the same profiling cost.
func TestLedgerReprofilesPastFraction(t *testing.T) {
	base := datagen.Lineitem(datagen.LineitemOpts{Rows: 20_000, Seed: 1})
	src := datagen.Lineitem(datagen.LineitemOpts{Rows: 3_000, Seed: 9})
	sets := ledgerSets(base)
	svc := NewService(GEE, 2_000, 1)
	for _, set := range sets {
		svc.NDV(base, set)
	}
	next := appendRows(base, src, 0, 3_000) // 15%
	svc.Advance(base, next)
	want := coldNDV(t, svc, next, sets)
	before := svc.Accounting()
	for i, set := range sets {
		if got := svc.NDV(next, set); got != want[i] {
			t.Fatalf("%v: NDV = %v, a cold service %v", set, got, want[i])
		}
	}
	cold := NewService(GEE, 2_000, 1)
	for _, set := range sets {
		cold.NDV(next, set)
	}
	acct := svc.Accounting()
	if acct.SamplesDrawn-before.SamplesDrawn != 1 || acct.RowsProfiled-before.RowsProfiled != cold.Accounting().RowsProfiled {
		t.Fatalf("past the fraction: %d samples and %d rows profiled, a cold service %+v",
			acct.SamplesDrawn-before.SamplesDrawn, acct.RowsProfiled-before.RowsProfiled, cold.Accounting())
	}
}

// TestSampleExtendMatchesNewSample: a reservoir brought forward over a run of
// appends, some skipped, is NewSample's over the final table: the same rows,
// the same gathered image and radices, and the same profile of every set.
func TestSampleExtendMatchesNewSample(t *testing.T) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 5_000, Seed: 1})
	src := datagen.Lineitem(datagen.LineitemOpts{Rows: 8_000, Seed: 4})
	sets := ledgerSets(tb)
	s := NewSample(tb, 800, 7)
	for _, set := range sets[:len(sets)/2] {
		s.ProfileOf(set) // gathers some columns before the appends
	}
	lo := 0
	for i, n := range []int{50, 3_000, 1, 700, 2_000, 1_249} {
		tb = appendRows(tb, src, lo, lo+n)
		lo += n
		if i%3 != 1 {
			s.extend(tb)
		}
	}
	s.extend(tb)
	fresh := NewSample(tb, 800, 7)
	if s.total != fresh.total || !slices.Equal(s.rows, fresh.rows) {
		t.Fatalf("brought-forward sample: %d rows over %d, NewSample %d over %d",
			len(s.rows), s.total, len(fresh.rows), fresh.total)
	}
	for c, col := range s.img {
		if col != nil && (!slices.Equal(col, fresh.column(c)) || s.top[c] != fresh.top[c]) {
			t.Fatalf("column %d: image or radix differs from a fresh gather", c)
		}
	}
	for _, set := range sets {
		got, want := s.ProfileOf(set), fresh.ProfileOf(set)
		if got.N != want.N || got.Distinct() != want.Distinct() || !slices.Equal(got.Freq, want.Freq) {
			t.Fatalf("%v: profile %+v, NewSample's %+v", set, got, want)
		}
	}
}

// TestLedgerFollowsAppendsToColdValues: over k appends, with lookups between
// them, the ledger's sample ends as NewSample's over the final table, and
// once the last append passes the fraction every NDV is a cold service's.
func TestLedgerFollowsAppendsToColdValues(t *testing.T) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 10_000, Seed: 1})
	src := datagen.Lineitem(datagen.LineitemOpts{Rows: 6_000, Seed: 4})
	sets := ledgerSets(tb)
	svc := NewService(Shlosser, 1_000, 3)
	lo := 0
	for i, n := range []int{300, 1_500, 200, 900, 2_600} { // the last passes 10% of 12 900
		for _, set := range sets[i%3*len(sets)/3 : (i%3+1)*len(sets)/3] {
			svc.NDV(tb, set)
		}
		next := appendRows(tb, src, lo, lo+n)
		lo += n
		svc.Advance(tb, next)
		tb = next
	}
	want := coldNDV(t, svc, tb, sets)
	for i, set := range sets {
		if got := svc.NDV(tb, set); got != want[i] {
			t.Fatalf("%v: NDV = %v, a cold service %v", set, got, want[i])
		}
	}
	l := svc.ledgers[tb.Name()]
	if fresh := NewSample(tb, 1_000, 3); l.sample.total != tb.NumRows() || !slices.Equal(l.sample.rows, fresh.rows) {
		t.Fatal("the ledger's sample is not NewSample's over the final table")
	}
}

// TestLedgerSiblings: two appends of one snapshot are two lineages. After the
// ledger follows the first, the second is a foreign table: it gets a cold
// service's values, not the first's clamped ones, and so does the first
// again after it.
func TestLedgerSiblings(t *testing.T) {
	p := datagen.Lineitem(datagen.LineitemOpts{Rows: 10_000, Seed: 1})
	a := appendRows(p, p, 0, 1_500) // past the fraction
	b := appendRows(p, p, 2_000, 2_300)
	sets := ledgerSets(p)
	svc := NewService(GEE, 1_000, 1)
	for _, set := range sets {
		svc.NDV(p, set)
	}
	svc.Advance(p, a)
	for _, tb := range []*table.Table{a, b, a} {
		want := coldNDV(t, svc, tb, sets)
		for i, set := range sets {
			if got := svc.NDV(tb, set); got != want[i] {
				t.Fatalf("%d rows, %v: NDV = %v, a cold service %v", tb.NumRows(), set, got, want[i])
			}
		}
	}
}

// TestLedgerRecountsExactStatistics: a count that claims exactness (the
// Exact estimator, or a census sample) holds at its own row count only.
// After an append CachedNDV misses it, NDV counts it again over the new
// snapshot, and a reader of the old snapshot still gets that snapshot's
// count, all without dropping the ledger.
func TestLedgerRecountsExactStatistics(t *testing.T) {
	base := datagen.Lineitem(datagen.LineitemOpts{Rows: 3_000, Seed: 1})
	next := appendRows(base, datagen.Lineitem(datagen.LineitemOpts{Rows: 100, Seed: 9}), 0, 100)
	sets := ledgerSets(base)
	for _, svc := range []*Service{NewService(Exact, 0, 1), NewService(Chao, 10_000, 1)} {
		for _, set := range sets {
			svc.NDV(base, set)
		}
		svc.Advance(base, next)
		for _, set := range sets {
			if _, ok := svc.CachedNDV(next, set); ok {
				t.Fatalf("%v %v: an exact count taken before the append was served after it", svc.estimator, set)
			}
			if got, want := svc.NDV(next, set), float64(ExactNDV(next, set)); got != want {
				t.Fatalf("%v %v: NDV after the append = %v, exact %v", svc.estimator, set, got, want)
			}
			if got, want := svc.NDV(base, set), float64(ExactNDV(base, set)); got != want {
				t.Fatalf("%v %v: NDV of the old snapshot = %v, exact %v", svc.estimator, set, got, want)
			}
			if got, ok := svc.CachedNDV(next, set); !ok || got != float64(ExactNDV(next, set)) {
				t.Fatalf("%v %v: the recount was not kept for the head (%v, %v)", svc.estimator, set, got, ok)
			}
		}
		if svc.Retained() != 1 {
			t.Fatalf("%v: %d ledgers, want 1", svc.estimator, svc.Retained())
		}
	}
}
