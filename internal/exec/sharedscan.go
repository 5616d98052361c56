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
	// dense starts this query's group table in dense mode: the kernel
	// chooser's pick, set by the entry points that run it.
	dense bool
}

// queryState is one query's aggregation state over one share of a scan: its
// group table (which records each group's first row), accumulators, and the
// block's group-id buffer.
type queryState struct {
	ht   *groupHash
	accs []accumulator
	gids []int32
}

// newQueryState builds the aggregation state for one query of a scan over t
// with the given accumulators, fed blocks of at most block rows. budget, when
// non-nil, is charged for the state's group table as it grows; q.dense starts
// the table in dense mode (see newGroupHash).
func newQueryState(t *table.Table, q MultiQuery, budget *MemBudget, block int, accs []accumulator) *queryState {
	return &queryState{
		ht:   newGroupHash(t, q.GroupCols, budget, q.SizeHint, q.dense),
		accs: accs,
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

// GroupByHashMulti computes several Group By queries in ONE pass over t —
// the shared-scan technique of §5.1 ("the basic ideas is to take advantage
// of commonality across Group By queries using techniques such as shared
// scans…", PipeHash-style): every row is read once and fed to each query's
// hash aggregate, so the table's row width is paid once instead of once per
// query. Results are returned in query order. A malformed request (group or
// aggregate column out of range) returns an error.
func GroupByHashMulti(t *table.Table, queries []MultiQuery) ([]*table.Table, error) {
	outs, _, err := GroupByHashMultiGov(nil, t, queries, 1)
	return outs, err
}

// GroupByHashMultiGov is the governed shared scan: context polled every
// cancelCheckRows rows, per-query group tables charged against the budget,
// and the scan split across up to workers contiguous shares (see groupBy;
// inputs under the per-worker row floor run sequentially). Each query keeps
// its own kernel pick: ChooseKernel decides its starting key mode (dense or
// hashed) from the inputs GroupByAdaptiveGov gives it, with SizeHint as the
// NDV estimate. It returns per-query kernel stats — kind, groups, workers,
// merge time and rehashes avoided by SizeHint presizing — so the engine can
// attribute shared-scan nodes.
func GroupByHashMultiGov(gov *Gov, t *table.Table, queries []MultiQuery, workers int) ([]*table.Table, []KernelStats, error) {
	if err := validateMulti(t, queries); err != nil {
		return nil, nil, err
	}
	picked := make([]MultiQuery, len(queries))
	for i, q := range queries {
		q.dense = ChooseKernel(ChooserInput{
			Rows:        t.NumRows(),
			GroupCols:   len(q.GroupCols),
			NDV:         float64(q.SizeHint),
			DenseDomain: DenseDomain(t, q.GroupCols),
			Workers:     workers,
			NAggs:       len(q.Aggs),
			Budget:      gov.Budget(),
		}).Kind == KernelDense
		picked[i] = q
	}
	return groupBy(gov, t, picked, effectiveWorkers(t.NumRows(), workers))
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
