package exec

import (
	"fmt"

	"gbmqo/internal/table"
)

// denseMinRows is the input size below which a *parallel* dense run is not
// admitted: its fixed costs — a domain-sized group-id array per share to
// allocate, zero and merge — are not amortized over a few thousand rows per
// worker. A sequential run allocates one array and merges nothing, so it is
// exempt.
const denseMinRows = 1 << 16

// ChooserInput is what the per-node physical operator chooser knows when it
// picks a kernel: table-local facts (rows, dictionary-derived dense domain),
// statistics estimates (NDV), the requested parallelism, and the admission
// gate.
type ChooserInput struct {
	// Rows is the input row count.
	Rows int
	// GroupCols is the number of grouping columns (0 = single global group).
	GroupCols int
	// NDV is the statistics estimate of the number of output groups: the
	// hash kernel's presize hint and the merge term of the split floor (see
	// effectiveWorkers); 0 means unknown (no stats threaded), which disables
	// both.
	NDV float64
	// DenseDomain is Π(dictSize+1) over the group columns (see DenseDomain);
	// 0 means inapplicable.
	DenseDomain int
	// Workers is the requested intra-operator DOP (post ResolveWorkers).
	Workers int
	// HashStateBytes estimates the hash kernel's working state — the
	// admission quantity of the hash → sort degradation ladder; 0 disables
	// the sort fallback (no budget or no estimate).
	HashStateBytes int64
	// NAggs is the number of aggregate columns.
	NAggs int
	// Budget is the admission gate (nil or unlimited admits everything).
	Budget *MemBudget
}

// KernelChoice is the chooser's decision: the kernel to run, the most shares
// its scan may split into, the hash presize hint, a human-readable reason,
// and any preferred kernels the budget rejected on the way down the ladder.
// The shares that actually run depend on the worker pool at scan time (see
// groupBy), so Reason names no worker count.
type KernelChoice struct {
	Kind      KernelKind
	Workers   int
	SizeHint  int
	Reason    string
	Fallbacks []KernelFallback
}

// ChooseKernel picks the physical aggregation kernel for one plan node from
// its statistics and the memory budget. The ladder:
//
//  1. dense — when the group-code domain is small enough that a flat
//     group-id array beats hashing (domain ≤ denseMaxDomain and within
//     table.DenseBound of the row count) and the budget admits the arrays
//     (see denseStateBytes). This holds at any worker count: indexing
//     replaces the hash probe, which is where a sequential node spends its
//     time — measured, a cold GB-MQO round's execution time fell by a
//     quarter to two fifths at unchanged rows scanned when sequential nodes
//     moved from hash to dense. A parallel run also needs rows ≥
//     denseMinRows to amortize its per-worker arrays and merge;
//  2. sort — when the budget cannot admit the hash kernel's estimated state
//     (the degradation rung: O(rows) working state);
//  3. hash — the default, presized from the NDV estimate.
//
// Every kernel but sort may split its scan into shares, as many as the
// worker budget and the split floor allow (see effectiveWorkers): each share
// must read enough rows to pay for merging the groups it may hold.
//
// Dense and hash are two key modes of one group table; the pick is the
// table's starting mode.
//
// A kernel rejected by budget admission is recorded in Fallbacks and the
// ladder continues — kernel choice degrades, it never errors.
func ChooseKernel(in ChooserInput) KernelChoice {
	if in.GroupCols == 0 || in.Rows == 0 {
		return KernelChoice{Kind: KernelHash, Workers: 1, Reason: "trivial input (no group columns or no rows)"}
	}
	var c KernelChoice
	w := effectiveWorkers(in.Rows, in.Workers, in.NDV)

	if (w == 1 || in.Rows >= denseMinRows) && in.DenseDomain > 0 && in.DenseDomain <= table.DenseBound(in.Rows) {
		need := denseStateBytes(in.DenseDomain, w)
		if !in.Budget.WouldExceed(need) {
			c.Kind = KernelDense
			c.Workers = w
			c.Reason = fmt.Sprintf("dense domain %d fits %d rows; flat array beats hashing", in.DenseDomain, in.Rows)
			return c
		}
		c.Fallbacks = append(c.Fallbacks, KernelFallback{
			Kind:   KernelDense,
			Detail: fmt.Sprintf("needs %dB of accumulator arrays, over budget", need),
		})
	}

	if in.HashStateBytes > 0 && in.Budget.WouldExceed(in.HashStateBytes) {
		c.Kind = KernelSort
		c.Workers = 1
		c.Reason = fmt.Sprintf("estimated hash state %dB over budget; O(rows) sort aggregation", in.HashStateBytes)
		return c
	}

	c.Kind = KernelHash
	c.Workers = w
	if hint := int(in.NDV); hint > 0 {
		if hint > in.Rows {
			hint = in.Rows
		}
		c.SizeHint = hint
	}
	if c.SizeHint > 0 {
		c.Reason = fmt.Sprintf("hash, presized for ~%d groups", c.SizeHint)
	} else {
		c.Reason = "hash (default)"
	}
	return c
}

// AdaptiveHints carries per-node statistics into the adaptive dispatch.
type AdaptiveHints struct {
	// NDV is the estimated number of output groups (0 = unknown).
	NDV float64
	// HashStateBytes is the engine's working-state estimate for the hash
	// kernel, used for sort-fallback admission (0 = no estimate / no budget).
	HashStateBytes int64
	// Workers is the requested intra-operator DOP.
	Workers int
}

// pick is the one kernel-pick step behind every adaptive entry point: it
// builds the chooser's input for query q over t from the caller's hints and
// the governor's budget, and runs the chooser.
func pick(gov *Gov, t *table.Table, q MultiQuery, hints AdaptiveHints) KernelChoice {
	return ChooseKernel(ChooserInput{
		Rows:           t.NumRows(),
		GroupCols:      len(q.GroupCols),
		NDV:            hints.NDV,
		DenseDomain:    DenseDomain(t, q.GroupCols),
		Workers:        hints.Workers,
		HashStateBytes: hints.HashStateBytes,
		NAggs:          len(q.Aggs),
		Budget:         gov.Budget(),
	})
}

// GroupByAdaptiveGov runs the per-node kernel chooser and dispatches to the
// chosen kernel: the batch of one of GroupByAdaptiveMultiGov. The kernel
// benchmark calls it, so measured adaptive behaviour is engine behaviour.
func GroupByAdaptiveGov(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string, hints AdaptiveHints) (*table.Table, KernelStats, error) {
	q := MultiQuery{GroupCols: groupCols, Aggs: aggs, OutName: outName}
	outs, stats, err := GroupByAdaptiveMultiGov(gov, t, []MultiQuery{q}, []AdaptiveHints{hints})
	if err != nil {
		return nil, KernelStats{}, err
	}
	return outs[0], stats[0], nil
}

// GroupByAdaptiveMultiGov computes every query in one read of t — the §5.1
// shared scan, of which a single query is the batch of one — each on the
// kernel the chooser picks for it from hints[i] (see pick). Dense and hashed
// picks share the scan; a query the budget sends to sort aggregation leaves
// the scan and sorts alone. The scan splits into at most the largest share
// count any pick was given, under the split floor of the batch as a whole:
// a row of the scan feeds every query and an extra share merges every
// query's groups, so the floor's group term is the mean NDV of the scan's
// queries. Results and stats are in query order. Each query's stats name the
// kernel that actually ran, the shares that ran, the chooser's reason, and
// any budget-rejected fallbacks; a dense pick whose table met a code outside
// its column's dictionary widened to a hashed key mode and reports hash.
func GroupByAdaptiveMultiGov(gov *Gov, t *table.Table, queries []MultiQuery, hints []AdaptiveHints) ([]*table.Table, []KernelStats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	if err := validateMulti(t, queries); err != nil {
		return nil, nil, err
	}
	outs := make([]*table.Table, len(queries))
	stats := make([]KernelStats, len(queries))
	choices := make([]KernelChoice, len(queries))
	var scan []MultiQuery
	var at []int // scan[j] is queries[at[j]]
	w, groups := 1, 0.0
	for i, q := range queries {
		c := pick(gov, t, q, hints[i])
		choices[i] = c
		if c.Kind == KernelSort {
			out, err := GroupBySortGov(gov, t, q.GroupCols, q.Aggs, q.OutName)
			if err != nil {
				return nil, nil, err
			}
			outs[i] = out
			stats[i] = KernelStats{Kind: KernelSort, Workers: 1, Groups: out.NumRows(), Reason: c.Reason, Fallbacks: c.Fallbacks}
			continue
		}
		q.SizeHint, q.dense = c.SizeHint, c.Kind == KernelDense
		scan, at = append(scan, q), append(at, i)
		w, groups = max(w, c.Workers), groups+hints[i].NDV
	}
	if len(scan) > 1 {
		w = effectiveWorkers(t.NumRows(), w, groups/float64(len(scan)))
	}
	scanned, scanStats, err := groupBy(gov, t, scan, w)
	if err != nil {
		return nil, nil, err
	}
	for j, i := range at {
		outs[i], stats[i] = scanned[j], scanStats[j]
		stats[i].Reason, stats[i].Fallbacks = choices[i].Reason, choices[i].Fallbacks
		if choices[i].Kind == KernelDense && stats[i].Kind != KernelDense {
			stats[i].Reason = "dense guard: a key code exceeds its dictionary size; widened to hash"
		}
		if ws := stats[i].Workers; ws > 1 {
			stats[i].Reason = fmt.Sprintf("%s; %d parallel shares", stats[i].Reason, ws)
		}
	}
	return outs, stats, nil
}
