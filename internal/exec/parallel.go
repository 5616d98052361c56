package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo/internal/table"
)

// shareMinRows is the fewest input rows one parallel worker is given: a
// share costs one goroutine and its own group table, which a few thousand
// rows do not amortize.
const shareMinRows = 16384

// mergeRowsPerGroup is c, the cost of merging one group of an extra share in
// rows of scan: a share must read at least c rows per group it may hold for
// its merge to pay. A second share saves rows/2 rows of scan and merges up
// to groups groups, so it breaks even at rows/2 = c·groups. Measured by
// BenchmarkShareSplitSweep (EXPERIMENTS.md) on the 100k-row lineitem, w=2
// beats w=1 at 3 528 and 4 004 groups and loses from 5 001 groups up, which
// puts c between 10 and 12.5.
const mergeRowsPerGroup = 12

// ResolveWorkers turns a parallelism knob into a concrete worker budget:
// 0 disables intra-operator parallelism, negative selects GOMAXPROCS, and
// positive values are used as-is.
func ResolveWorkers(parallelism int) int {
	if parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// effectiveWorkers applies the split floor to a requested worker count:
// every share reads at least max(shareMinRows, c·groups) rows, where groups
// is the expected group count (0 = unknown, leaving the row floor alone).
// The merge re-probes every group of every extra share, so a node whose
// groups approach its rows — and anything small, the typical temp-table
// re-aggregation — stays sequential.
func effectiveWorkers(rows, requested int, groups float64) int {
	perShare := max(shareMinRows, mergeRowsPerGroup*groups)
	return max(1, min(requested, int(float64(rows)/perShare)))
}

// groupBy is the one driver behind every hash and dense Group By — single
// query or shared scan, at any worker count. Every query's rows come from one
// read of t. The read is split into w contiguous shares, share i covering
// rows [i·n/w, (i+1)·n/w); each share feeds its own per-query state through
// the one block loop (scanShare). w is the effective worker count: entry
// points pass it through effectiveWorkers or ChooseKernel, and tests pass
// more to exercise merges on small tables. Share 0 runs in the calling
// goroutine, on the worker token its caller holds; each further share runs
// on a goroutine of its own and starts only on a token gov's pool has free
// now (TryTake), so the scan runs with fewer shares, down to one, when the
// pool is busy. The tokens go back when the scan ends. A Gov without a pool
// starts all w shares.
//
// The shares are then merged in worker order into share 0's state: each
// share's groups, taken in its local first-appearance order, are probed into
// share 0's table by their first row, and partial aggregate states combine
// via mergePartial (counts add, sums add, extremes compare). Shares ascend,
// so a group's first sighting is its global first row and the merged group
// order is the sequential scan's first-appearance order without a sort.
// SUM/AVG over TFloat64 may round differently from a sequential scan,
// because partial sums combine in a different order.
//
// A query whose dense flag is set starts its tables in dense mode (see
// newGroupHash). A share that meets a code outside its column's dictionary
// widens its own table; the merge widens share 0's table when it meets that
// code's group, so the reported Kind is hash whenever any share widened.
//
// Failure semantics: in a parallel scan a panicking share is recovered in the
// goroutine that runs it and reported as a *ExecError naming the worker
// ("share worker 0" is the caller's); the other workers stop at their
// next block boundary, every budget charge is released, and no partial
// result escapes. A cancelled context stops every share at its next block
// boundary and returns the context's error.
func groupBy(gov *Gov, t *table.Table, queries []MultiQuery, w int) ([]*table.Table, []KernelStats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	if err := validateMulti(t, queries); err != nil {
		return nil, nil, err
	}
	extra := gov.TryTake(w - 1)
	defer func() { gov.Release(extra) }()
	w = 1 + extra
	n := t.NumRows()
	budget := gov.Budget()
	shares := make([][]*queryState, w)
	defer func() {
		var freed int64
		for _, states := range shares {
			for _, st := range states {
				if st != nil { // nil when a constructor panicked
					freed += st.ht.charged
				}
			}
		}
		budget.Release(freed)
	}()
	// All state is built here, before any worker starts: share 0's
	// constructors force the lazily built state the other shares' clones then
	// read (the scan image, dictionary rank tables). A share sees ~1/w of the
	// rows, so its table holds at most that many groups; only share 0, the
	// merge target, keeps the full presize hint.
	for wi := range shares {
		shares[wi] = make([]*queryState, len(queries))
		block := blockLen((wi+1)*n/w - wi*n/w)
		for qi, q := range queries {
			if wi == 0 {
				shares[0][qi] = newQueryState(t, q, budget, block, newAccs(q.Aggs, t))
				continue
			}
			q.SizeHint = min(q.SizeHint, n/w+1)
			shares[wi][qi] = newQueryState(t, q, budget, block, cloneAccs(shares[0][qi].accs))
		}
	}
	err := scanShares(gov, shares, n)
	gov.Release(extra)
	extra = 0
	if err != nil {
		return nil, nil, err
	}

	stats := make([]KernelStats, len(queries))
	var accBytes int64
	for qi := range queries {
		dst := shares[0][qi]
		mergeStart := time.Now()
		for _, states := range shares[1:] {
			src := states[qi]
			for lg, row := range src.ht.firstRows {
				g := dst.ht.groupOf(int(row))
				for ai, acc := range dst.accs {
					acc.mergePartial(g, src.accs[ai], lg)
				}
			}
		}
		stats[qi] = KernelStats{
			Kind:            dst.ht.kind(),
			Workers:         w,
			Groups:          len(dst.ht.firstRows),
			RehashesAvoided: dst.ht.rehashesAvoided(),
		}
		if w > 1 {
			stats[qi].Merge = time.Since(mergeStart)
		}
		accBytes += accStateBytes(len(dst.ht.firstRows), len(dst.accs))
	}
	budget.Add(accBytes)
	defer budget.Release(accBytes)
	out := make([]*table.Table, len(queries))
	for qi, q := range queries {
		st := shares[0][qi]
		out[qi] = emitGroups(t, q.GroupCols, q.Aggs, st.accs, st.ht.firstRows, nil, q.OutName)
	}
	return out, stats, nil
}

// scanShares runs share 0 in the calling goroutine and every other share on
// its own goroutine, and waits for all of them. A worker's panic is
// recovered into the returned *ExecError and stops the others at their next
// block boundary.
func scanShares(gov *Gov, shares [][]*queryState, n int) error {
	w := len(shares)
	if w == 1 {
		return scanShare(gov, shares[0], 0, n, nil)
	}
	var stop atomic.Bool
	var workerErr atomic.Pointer[ExecError]
	run := func(wi int) {
		defer func() {
			if p := recover(); p != nil {
				stop.Store(true)
				workerErr.CompareAndSwap(nil, &ExecError{
					Step: fmt.Sprintf("share worker %d", wi),
					Err:  RecoveredPanic(p),
				})
			}
		}()
		Testing.Fire("exec.share.worker")
		if err := scanShare(gov, shares[wi], wi*n/w, (wi+1)*n/w, &stop); err != nil {
			stop.Store(true) // a context error surfaces below via gov.Err
		}
	}
	var wg sync.WaitGroup
	for wi := 1; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(wi)
		}()
	}
	run(0)
	wg.Wait()
	if e := workerErr.Load(); e != nil {
		return e
	}
	return gov.Err()
}

// scanShare is the one block loop: it feeds rows [lo, hi) to every query's
// state a block at a time, polling gov between blocks. stop, when non-nil,
// ends the loop at the next block boundary after a sibling share failed.
func scanShare(gov *Gov, states []*queryState, lo, hi int, stop *atomic.Bool) error {
	buf := make([]int32, blockLen(hi-lo))
	for base := lo; base < hi; base += cancelCheckRows {
		Testing.Fire("exec.hash.batch")
		if err := gov.Err(); err != nil {
			return err
		}
		if stop != nil && stop.Load() {
			return nil
		}
		rows := rowBlock(buf, base, min(base+cancelCheckRows, hi))
		for _, st := range states {
			st.observe(base, rows)
		}
	}
	return nil
}
