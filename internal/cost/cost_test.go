package cost

import (
	"math/rand"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/index"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// testEnv builds a 3-column table with known NDVs: a∈[0,4) b∈[0,50) c near-unique.
func testEnv(t *testing.T, rows int) *Env {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	tb := table.New("t", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "b", Typ: table.TInt64},
		{Name: "c", Typ: table.TInt64},
	})
	for i := 0; i < rows; i++ {
		tb.AppendRow(table.Int(int64(r.Intn(4))), table.Int(int64(r.Intn(50))), table.Int(int64(i)))
	}
	return NewEnv(tb, stats.NewService(stats.Exact, 0, 1), nil)
}

func TestEnvBasics(t *testing.T) {
	env := testEnv(t, 1000)
	if env.BaseRows() != 1000 {
		t.Fatalf("BaseRows = %v", env.BaseRows())
	}
	if got := env.NDV(colset.Of(0)); got != 4 {
		t.Fatalf("NDV(a) = %v", got)
	}
	if got := env.Width(colset.Of(0, 1)); got != 16 {
		t.Fatalf("Width = %v", got)
	}
	if env.Base().Name() != "t" {
		t.Fatal("Base wrong")
	}
}

func TestCardinalityModel(t *testing.T) {
	env := testEnv(t, 1000)
	m := NewCardinality(env)
	if m.Name() != "cardinality" {
		t.Fatal("name")
	}
	base := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0)})
	if base != 1000 {
		t.Fatalf("base edge = %v", base)
	}
	inter := m.EdgeCost(Edge{Parent: colset.Of(0, 1), V: colset.Of(0)})
	// |GroupBy(a,b)| = 200 at most (4×50); exact NDV from the data.
	want := env.NDV(colset.Of(0, 1))
	if inter != want {
		t.Fatalf("intermediate edge = %v, want %v", inter, want)
	}
	// Materialization is free under the cardinality model (§3.2.1).
	mat := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), Materialize: true})
	if mat != base {
		t.Fatalf("materialize changed cardinality cost: %v vs %v", mat, base)
	}
	if m.Calls() != 3 { // three EdgeCost invocations; env.NDV doesn't count
		t.Fatalf("calls = %d, want 3", m.Calls())
	}
	m.ResetCalls()
	if m.Calls() != 0 {
		t.Fatal("ResetCalls failed")
	}
}

func TestOptimizerModelOrdering(t *testing.T) {
	env := testEnv(t, 10_000)
	m := NewOptimizer(env, Coefficients{})
	if m.Name() != "optimizer" {
		t.Fatal("name")
	}
	// Computing (a) from the small intermediate (a,b) must be much cheaper
	// than from the base table.
	fromBase := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), NAggs: 1})
	fromAB := m.EdgeCost(Edge{Parent: colset.Of(0, 1), V: colset.Of(0), NAggs: 1})
	if fromAB >= fromBase/10 {
		t.Fatalf("intermediate edge %v not ≪ base edge %v", fromAB, fromBase)
	}
	// Materialization adds cost.
	plain := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), NAggs: 1})
	mat := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), NAggs: 1, Materialize: true})
	if mat <= plain {
		t.Fatalf("materialize did not add cost: %v vs %v", mat, plain)
	}
	// A wide grouping set costs more than a narrow one (more bytes scanned,
	// more groups built).
	narrow := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), NAggs: 1})
	wide := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0, 1, 2), NAggs: 1})
	if wide <= narrow {
		t.Fatalf("wide set not more expensive: %v vs %v", wide, narrow)
	}
}

func TestOptimizerModelIndexPaths(t *testing.T) {
	env := testEnv(t, 10_000)
	m := NewOptimizer(env, Coefficients{})
	noIx := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(1), NAggs: 1})

	// Exact-match index: cost collapses to O(#groups).
	ix := index.Build(env.Base(), "ix_b", []int{1}, false)
	env.SetIndexes([]*index.Index{ix})
	exact := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(1), NAggs: 1})
	if exact >= noIx/10 {
		t.Fatalf("exact index path %v not ≪ hash path %v", exact, noIx)
	}

	// Prefix match: cheaper than hash but dearer than exact.
	ix2 := index.Build(env.Base(), "ix_bc", []int{1, 2}, false)
	env.SetIndexes([]*index.Index{ix2})
	prefix := m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(1), NAggs: 1})
	if prefix >= noIx || prefix <= exact {
		t.Fatalf("prefix path %v out of order (hash %v, exact %v)", prefix, noIx, exact)
	}

	// Index paths only apply to base-table scans.
	interBefore := m.EdgeCost(Edge{Parent: colset.Of(1, 2), V: colset.Of(1), NAggs: 1})
	env.SetIndexes(nil)
	interAfter := m.EdgeCost(Edge{Parent: colset.Of(1, 2), V: colset.Of(1), NAggs: 1})
	if interBefore != interAfter {
		t.Fatal("index affected non-base edge")
	}
}

func TestDefaultCoefficientsApplied(t *testing.T) {
	env := testEnv(t, 100)
	a := NewOptimizer(env, Coefficients{})
	b := NewOptimizer(env, DefaultCoefficients())
	ea := a.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), NAggs: 1})
	eb := b.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0), NAggs: 1})
	if ea != eb {
		t.Fatalf("zero-value coefficients not defaulted: %v vs %v", ea, eb)
	}
}

func TestOptimizerCallsCounted(t *testing.T) {
	env := testEnv(t, 100)
	m := NewOptimizer(env, Coefficients{})
	for i := 0; i < 5; i++ {
		m.EdgeCost(Edge{ParentIsBase: true, V: colset.Of(0)})
	}
	if m.Calls() != 5 {
		t.Fatalf("calls = %d", m.Calls())
	}
}
