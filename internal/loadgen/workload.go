// Package loadgen builds the query populations and append streams the
// benchmark offers a DB: the group-by lattice over a table's
// grouping-friendly columns, coarsest first, and a deterministic rotation of
// append batches sampled from the table's own rows.
package loadgen

import (
	"math/rand"
	"sort"

	"gbmqo"
)

// Workload is the query population the driver draws from plus the rows it
// appends: Queries is rank-ordered (index 0 is the Zipf-most-popular query),
// Proto holds prototype rows cycled through by append operations.
type Workload struct {
	Table   string
	Queries []gbmqo.GroupQuery
	Proto   [][]gbmqo.Value
}

// LatticeWorkload enumerates the group-by lattice over cols — every
// non-empty subset of up to maxDims grouping columns, coarsest first — as
// the query population. Coarse subsets ranking first matches how dashboards
// behave (few-column rollups dominate), which is exactly the regime where
// the cross-query cache and ancestor re-aggregation pay off. Each query
// carries the given aggregate list (COUNT(*) when empty).
func LatticeWorkload(table string, cols []string, maxDims int, aggs []gbmqo.Agg) []gbmqo.GroupQuery {
	if maxDims <= 0 || maxDims > len(cols) {
		maxDims = len(cols)
	}
	if len(aggs) == 0 {
		aggs = []gbmqo.Agg{gbmqo.CountStar()}
	}
	var out []gbmqo.GroupQuery
	for size := 1; size <= maxDims; size++ {
		subsets(len(cols), size, func(idx []int) {
			q := gbmqo.GroupQuery{Aggs: aggs}
			for _, i := range idx {
				q.Cols = append(q.Cols, cols[i])
			}
			out = append(out, q)
		})
	}
	return out
}

// subsets calls fn with every size-k index subset of 0..n-1 in lexicographic
// order (fn must copy idx if it retains it).
func subsets(n, k int, fn func(idx []int)) {
	idx := make([]int, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			fn(idx)
			return
		}
		for i := start; i <= n-(k-d); i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
}

// PickGroupCols selects up to max grouping-friendly dimension columns from
// t: distinct count at least 2 (a constant column groups trivially) and at
// most maxNDV (identifier-grade columns explode the lattice), lowest
// cardinality first — the columns a dashboard would actually group by.
func PickGroupCols(t *gbmqo.Table, max, maxNDV int) []string {
	type cand struct {
		name string
		ndv  int
	}
	var cands []cand
	for i := 0; i < t.NumCols(); i++ {
		c := t.Col(i)
		if ndv := c.DistinctCount(); ndv >= 2 && ndv <= maxNDV {
			cands = append(cands, cand{c.Name(), ndv})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].ndv < cands[b].ndv })
	if max > 0 && len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// ProtoRows samples n rows from t (seeded, with replacement) as the append
// prototypes: appended batches then carry the base table's value
// distributions, so delta aggregation sees realistic group keys instead of
// synthetic constants.
func ProtoRows(t *gbmqo.Table, n int, seed int64) [][]gbmqo.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]gbmqo.Value, n)
	for i := range out {
		r := rng.Intn(t.NumRows())
		row := make([]gbmqo.Value, t.NumCols())
		for c := range row {
			row[c] = t.Col(c).Value(r)
		}
		out[i] = row
	}
	return out
}

// AppendBatch returns the rows for the i-th append operation: a rotating
// window of size rows over the prototype set, so consecutive appends differ
// but the stream stays deterministic.
func (w *Workload) AppendBatch(i, rows int) [][]gbmqo.Value {
	if len(w.Proto) == 0 || rows <= 0 {
		return nil
	}
	out := make([][]gbmqo.Value, 0, rows)
	for k := 0; k < rows; k++ {
		out = append(out, w.Proto[(i*rows+k)%len(w.Proto)])
	}
	return out
}
