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
// hash table (which records each group's first row), accumulators, and the
// block's group-id buffer.
type queryState struct {
	ht   *groupHash
	accs []accumulator
	gids []int32
}

// newQueryState builds the aggregation state for one query of a scan over t,
// fed blocks of at most block rows. budget, when non-nil, is charged for the
// state's hash-table slots as they grow.
func newQueryState(t *table.Table, q MultiQuery, budget *MemBudget, block int) *queryState {
	return &queryState{
		ht:   newGroupHash(t, q.GroupCols, budget, q.SizeHint),
		accs: newAccs(q.Aggs, t),
		gids: make([]int32, block),
	}
}

// observe feeds the contiguous block of rows [lo, lo+len(rows)), whose ids
// rows holds, into the query's aggregation state: the block probe assigns
// every row its group, then each accumulator takes the block.
func (st *queryState) observe(lo int, rows []int32) {
	gids := st.gids[:len(rows)]
	st.ht.assign(lo, gids)
	observeAll(st.accs, gids, rows, len(st.ht.firstRows))
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
	buf := make([]int32, blockLen(n))
	for qi, q := range queries {
		states[qi] = newQueryState(t, q, budget, len(buf))
	}
	for base := 0; base < n; base += cancelCheckRows {
		Testing.Fire("exec.hash.batch")
		if err := gov.Err(); err != nil {
			return nil, nil, err
		}
		rows := rowBlock(buf, base, min(base+cancelCheckRows, n))
		for _, st := range states {
			st.observe(base, rows)
		}
	}
	var accBytes int64
	for _, st := range states {
		accBytes += accStateBytes(len(st.ht.firstRows), len(st.accs))
	}
	budget.Add(accBytes)
	defer budget.Release(accBytes)
	out := make([]*table.Table, len(queries))
	stats := make([]KernelStats, len(queries))
	for qi, q := range queries {
		out[qi] = emitGroups(t, q.GroupCols, q.Aggs, states[qi].accs, states[qi].ht.firstRows, nil, q.OutName)
		stats[qi] = KernelStats{
			Kind:            KernelHash,
			Workers:         1,
			Groups:          len(states[qi].ht.firstRows),
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
