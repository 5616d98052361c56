package exec

import (
	"fmt"
	"slices"

	"gbmqo/internal/table"
)

// denseMinRows is the input size below which a *parallel* dense run is not
// admitted: its fixed costs — a domain-sized group-id array per share to
// allocate, zero and merge — are not amortized over a few thousand rows per
// worker. A sequential run allocates one array and merges nothing, so it is
// exempt.
const denseMinRows = 1 << 16

// ChooserInput is what the physical operator chooser knows when it picks a
// kernel: the input's rows, its dictionary-derived dense domain, the
// statistics estimate of its groups (NDV), the requested parallelism, and the
// admission gate.
type ChooserInput struct {
	// Rows is the input row count.
	Rows int
	// GroupCols is the number of grouping columns (0 = single global group).
	GroupCols int
	// NDV is the statistics estimate of the number of output groups: the
	// hash kernel's presize hint and the merge term of the split floor (see
	// effectiveWorkers); 0 means unknown, which disables both.
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
	// Budget is the admission gate (nil or unlimited admits everything).
	Budget *MemBudget
}

// KernelChoice is the chooser's decision: the kernel to run, the most shares
// its scan may split into, the hash presize hint, the group estimate it was
// made for, a human-readable reason, and any preferred kernels the budget
// rejected on the way down the ladder. The shares that actually run depend on
// the worker pool at scan time (see groupBy), so Reason names no worker
// count. The zero value runs a sequential, unsized hash scan.
type KernelChoice struct {
	Kind     KernelKind
	Workers  int
	SizeHint int
	// Groups is the estimate of the output groups the choice was made for
	// (ChooserInput.NDV; 0 = unknown): the presize hint should the budget turn
	// a dense pick to hash, and a shared scan's split-floor term.
	Groups    float64
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
// The budget's rungs are Admit's, so a pick made without a budget and
// admitted later lands where a pick made under the budget does. A kernel
// rejected by budget admission is recorded in Fallbacks and the ladder
// continues — kernel choice degrades, it never errors.
func ChooseKernel(in ChooserInput) KernelChoice {
	if in.GroupCols == 0 || in.Rows == 0 {
		return KernelChoice{Kind: KernelHash, Workers: 1, Reason: "trivial input (no group columns or no rows)"}
	}
	c := KernelChoice{Workers: effectiveWorkers(in.Rows, in.Workers, in.NDV), Groups: in.NDV}
	if (c.Workers == 1 || in.Rows >= denseMinRows) && in.DenseDomain > 0 && in.DenseDomain <= table.DenseBound(in.Rows) {
		c.Kind = KernelDense
		c.Reason = fmt.Sprintf("dense domain %d fits %d rows; flat array beats hashing", in.DenseDomain, in.Rows)
	} else {
		c = c.hashed(in.Rows)
	}
	return Admit(c, in.Budget, in.Rows, in.DenseDomain, in.HashStateBytes)
}

// Admit applies the memory budget to a kernel choice for an input of rows
// rows with the given dense domain. It only degrades: a dense pick whose
// arrays the budget would not hold falls back to hash, presized from the
// choice's group estimate and recorded in Fallbacks, and a hash pick whose
// estimated state hashState (0 = no estimate) the budget would not hold
// degrades to sort. The planner picks without a budget; the executor admits
// each pick when its node runs and the budget's headroom is known.
func Admit(c KernelChoice, budget *MemBudget, rows, domain int, hashState int64) KernelChoice {
	if c.Kind == KernelDense {
		need := denseStateBytes(domain, c.Workers)
		if !budget.WouldExceed(need) {
			return c
		}
		c.Fallbacks = append(slices.Clip(c.Fallbacks), KernelFallback{
			Kind:   KernelDense,
			Detail: fmt.Sprintf("needs %dB of accumulator arrays, over budget", need),
		})
		c = c.hashed(rows)
	}
	if c.Kind == KernelHash && hashState > 0 && budget.WouldExceed(hashState) {
		c.Kind, c.Workers, c.SizeHint = KernelSort, 1, 0
		c.Reason = fmt.Sprintf("estimated hash state %dB over budget; O(rows) sort aggregation", hashState)
	}
	return c
}

// hashed turns c into a hash pick presized for its group estimate, clamped
// to the input's rows.
func (c KernelChoice) hashed(rows int) KernelChoice {
	c.Kind, c.SizeHint = KernelHash, min(max(int(c.Groups), 0), rows)
	if c.SizeHint > 0 {
		c.Reason = fmt.Sprintf("hash, presized for ~%d groups", c.SizeHint)
	} else {
		c.Reason = "hash (default)"
	}
	return c
}

// AdaptiveHints carries what a caller without a plan node knows of one
// query into GroupByAdaptiveGov's pick.
type AdaptiveHints struct {
	// NDV is the estimated number of output groups (0 = unknown).
	NDV float64
	// Workers is the requested intra-operator DOP.
	Workers int
}

// GroupByAdaptiveGov picks the kernel for one query over t from the
// caller's hints and the governor's budget, and runs it: the batch of one of
// GroupByMultiGov. Callers with no plan node to read a pick from — the cache's
// roll-ups, append maintenance, the kernel benchmark — call it, so measured
// adaptive behaviour is engine behaviour.
func GroupByAdaptiveGov(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string, hints AdaptiveHints) (*table.Table, KernelStats, error) {
	if err := validateRequest(t, groupCols, aggs); err != nil {
		return nil, KernelStats{}, err
	}
	c := ChooseKernel(ChooserInput{
		Rows:        t.NumRows(),
		GroupCols:   len(groupCols),
		NDV:         hints.NDV,
		DenseDomain: DenseDomain(t, groupCols),
		Workers:     hints.Workers,
		Budget:      gov.Budget(),
	})
	q := MultiQuery{GroupCols: groupCols, Aggs: aggs, OutName: outName}
	outs, stats, err := GroupByMultiGov(gov, t, []MultiQuery{q}, []KernelChoice{c})
	if err != nil {
		return nil, KernelStats{}, err
	}
	return outs[0], stats[0], nil
}

// GroupByMultiGov computes every query in one read of t — the §5.1 shared
// scan, of which a single query is the batch of one — each on the kernel
// choices[i] names; it picks nothing. Dense and hashed choices share the
// scan; a sort choice leaves the scan and sorts alone. The scan splits into
// at most the largest share count any choice was given, under the split
// floor of the batch as a whole: a row of the scan feeds every query and an
// extra share merges every query's groups, so the floor's group term is the
// mean group estimate of the scan's queries. Results and stats are in query
// order. Each query's stats name the kernel that actually ran, the shares
// that ran, the choice's reason, and any budget-rejected fallbacks; a dense
// choice whose table met a code outside its column's dictionary widened to a
// hashed key mode and reports hash.
func GroupByMultiGov(gov *Gov, t *table.Table, queries []MultiQuery, choices []KernelChoice) ([]*table.Table, []KernelStats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	if err := validateMulti(t, queries); err != nil {
		return nil, nil, err
	}
	outs := make([]*table.Table, len(queries))
	stats := make([]KernelStats, len(queries))
	var scan []MultiQuery
	var at []int // scan[j] is queries[at[j]]
	w, groups := 1, 0.0
	for i, q := range queries {
		c := choices[i]
		if c.Kind == KernelSort {
			out, err := GroupBySortGov(gov, t, q.GroupCols, q.Aggs, q.OutName)
			if err != nil {
				return nil, nil, err
			}
			outs[i] = out
			stats[i] = KernelStats{Kind: KernelSort, Workers: 1, Groups: out.NumRows(), Reason: c.Reason, Fallbacks: c.Fallbacks}
			continue
		}
		q.SizeHint, q.dense = min(c.SizeHint, t.NumRows()), c.Kind == KernelDense
		scan, at = append(scan, q), append(at, i)
		w, groups = max(w, c.Workers), groups+c.Groups
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
