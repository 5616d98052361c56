package loadgen

import "testing"

// TestLatticeWorkload: the population enumerates every subset up to maxDims,
// coarsest first.
func TestLatticeWorkload(t *testing.T) {
	qs := LatticeWorkload("t", []string{"a", "b", "c"}, 2, nil)
	if len(qs) != 6 { // 3 singletons + 3 pairs
		t.Fatalf("got %d queries, want 6", len(qs))
	}
	if len(qs[0].Cols) != 1 || len(qs[5].Cols) != 2 {
		t.Fatalf("population not ordered coarsest-first: %v ... %v", qs[0].Cols, qs[5].Cols)
	}
	for _, q := range qs {
		if len(q.Aggs) != 1 {
			t.Fatalf("query %v missing default COUNT(*)", q.Cols)
		}
	}
}
