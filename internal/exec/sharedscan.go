package exec

import (
	"gbmqo/internal/table"
)

// MultiQuery is one member of a shared scan: a grouping column list with its
// aggregates and output name.
type MultiQuery struct {
	GroupCols []int
	Aggs      []Agg
	OutName   string
	// SizeHint, when > 0, presizes this query's group table for that many
	// expected groups (see newGroupHash).
	SizeHint int
}

// queryState is one query's aggregation state during a (shared) scan: its
// hash table, accumulators, and the first row of each group in the order the
// scan discovered them.
type queryState struct {
	ht        *groupHash
	accs      []accumulator
	firstRows []int32
}

// newQueryState builds the aggregation state for one query of a scan over t.
// budget, when non-nil, is charged for the state's hash-table slots as they
// grow.
func newQueryState(t *table.Table, q MultiQuery, budget *MemBudget) *queryState {
	st := &queryState{ht: newGroupHash(t, q.GroupCols, budget, q.SizeHint), accs: make([]accumulator, len(q.Aggs))}
	for i, a := range q.Aggs {
		st.accs[i] = newAccumulator(a, t)
	}
	return st
}

// observe feeds one row into the query's aggregation state.
func (st *queryState) observe(row int) {
	g, isNew := st.ht.groupOf(row)
	if isNew {
		st.firstRows = append(st.firstRows, int32(row))
	}
	for _, acc := range st.accs {
		acc.observe(g, row)
	}
}

// chargedBytes is the budget charge this state currently holds.
func (st *queryState) chargedBytes() int64 {
	if st == nil {
		return 0
	}
	return st.ht.charged
}

// GroupByHashMulti computes several Group By queries in ONE pass over t —
// the shared-scan technique of §5.1 ("the basic ideas is to take advantage
// of commonality across Group By queries using techniques such as shared
// scans…", PipeHash-style): every row is read once and fed to each query's
// hash aggregate, so the table's row width is paid once instead of once per
// query. Results are returned in query order. A malformed request (group or
// aggregate column out of range) returns an error.
func GroupByHashMulti(t *table.Table, queries []MultiQuery) ([]*table.Table, error) {
	return GroupByHashMultiGov(nil, t, queries)
}

// GroupByHashMultiGov is the governed shared scan: context polled every
// cancelCheckRows rows, per-query hash state charged against the budget.
func GroupByHashMultiGov(gov *Gov, t *table.Table, queries []MultiQuery) ([]*table.Table, error) {
	outs, _, err := GroupByHashMultiStatsGov(gov, t, queries)
	return outs, err
}

// GroupByHashMultiStatsGov is GroupByHashMultiGov returning per-query kernel
// stats (group counts and rehashes avoided by SizeHint presizing), so the
// engine can attribute shared-scan nodes in its execution report.
func GroupByHashMultiStatsGov(gov *Gov, t *table.Table, queries []MultiQuery) ([]*table.Table, []KernelStats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	if err := validateMulti(t, queries); err != nil {
		return nil, nil, err
	}
	n := t.NumRows()
	budget := gov.Budget()

	states := make([]*queryState, len(queries))
	defer func() {
		for _, st := range states {
			budget.Release(st.chargedBytes())
		}
	}()
	for qi, q := range queries {
		states[qi] = newQueryState(t, q, budget)
	}
	for row := 0; row < n; row++ {
		if row&(cancelCheckRows-1) == 0 {
			Testing.Fire("exec.hash.batch")
			if err := gov.Err(); err != nil {
				return nil, nil, err
			}
		}
		for _, st := range states {
			st.observe(row)
		}
	}
	var accBytes int64
	for _, st := range states {
		accBytes += accStateBytes(len(st.firstRows), len(st.accs))
	}
	budget.Add(accBytes)
	defer budget.Release(accBytes)
	out := make([]*table.Table, len(queries))
	stats := make([]KernelStats, len(queries))
	for qi, q := range queries {
		out[qi] = emitGroups(t, q.GroupCols, q.Aggs, states[qi].accs, states[qi].firstRows, nil, q.OutName)
		stats[qi] = KernelStats{
			Kind:            KernelHash,
			Workers:         1,
			Groups:          len(states[qi].firstRows),
			RehashesAvoided: states[qi].ht.rehashesAvoided(),
		}
	}
	return out, stats, nil
}

// validateMulti rejects malformed shared-scan requests with an error the
// engine propagates to the caller; only genuine operator invariants panic.
func validateMulti(t *table.Table, queries []MultiQuery) error {
	for _, q := range queries {
		if err := validateRequest(t, q.GroupCols, q.Aggs); err != nil {
			return err
		}
	}
	return nil
}
