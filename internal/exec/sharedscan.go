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
	// expected groups (see newGroupHash). The adaptive entry points set it
	// from the chooser's pick.
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
// aggregate, so the table's row width is paid once instead of once per
// query. It is the ungoverned, sequential GroupByAdaptiveMultiGov, with each
// query's SizeHint as its NDV estimate. Results are returned in query order.
// A malformed request (group or aggregate column out of range) returns an
// error.
func GroupByHashMulti(t *table.Table, queries []MultiQuery) ([]*table.Table, error) {
	hints := make([]AdaptiveHints, len(queries))
	for i, q := range queries {
		hints[i].NDV = float64(q.SizeHint)
	}
	outs, _, err := GroupByAdaptiveMultiGov(nil, t, queries, hints)
	return outs, err
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
