package exec

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo/internal/table"
)

// morselRows is the number of rows in one parallel work unit. Morsels are
// handed to workers through an atomic counter (morsel-driven scheduling), so
// the unit must be large enough to amortize the counter bump and small enough
// to load-balance skewed group distributions across workers. It also bounds
// cancellation latency: workers poll the governing context between morsels,
// so a cancelled plan stops within one morsel's worth of work per worker.
const morselRows = 16384

// ParStats reports how one parallel aggregation ran.
type ParStats struct {
	// Workers is the number of morsel workers actually used (1 = the operator
	// fell back to the sequential path).
	Workers int
	// Morsels is the number of work units the row range was split into.
	Morsels int
	// Merge is the wall time spent merging worker-local hash tables into the
	// final result.
	Merge time.Duration
	// RehashesAvoided counts hash-table grow() doublings skipped because the
	// group tables were presized from an NDV estimate.
	RehashesAvoided int
}

// ResolveWorkers turns a parallelism knob into a concrete worker budget:
// 0 disables intra-operator parallelism, negative selects GOMAXPROCS, and
// positive values are used as-is.
func ResolveWorkers(parallelism int) int {
	if parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// effectiveWorkers applies the size cutoff to a requested worker count. Going
// parallel costs one goroutine plus a merge phase that re-touches every
// output group once per worker, so it only pays when each worker aggregates
// at least one full morsel of rows (at the calibrated cost coefficients —
// ~40 units to hash a row vs ~200 to build a group — one morsel of hashing
// amortizes a merge of several thousand groups). Anything smaller, i.e. the
// typical temp-table re-aggregation, stays sequential.
func effectiveWorkers(rows, requested int) int {
	if requested < 1 {
		return 1
	}
	if max := rows / morselRows; requested > max {
		requested = max
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// GroupByHashParallel is GroupByHash with morsel-driven parallelism: the row
// range is split into fixed-size morsels pulled from an atomic counter by
// `workers` goroutines, each aggregating into a thread-local hash table, and
// the local tables are merged by combining partial aggregate states (see
// accumulator.mergePartial). Group order matches the sequential operator
// exactly (global first-appearance order), so results are byte-identical —
// up to float summation order for SUM/AVG over TFloat64, where parallel
// partials may round differently. Inputs below the size cutoff run the
// sequential operator; the returned ParStats says what happened. It is the
// ungoverned convenience form of GroupByHashParallelGov; a malformed request
// panics.
func GroupByHashParallel(t *table.Table, groupCols []int, aggs []Agg, outName string, workers int) (*table.Table, ParStats) {
	out, st, err := GroupByHashParallelGov(nil, t, groupCols, aggs, outName, workers)
	if err != nil {
		panic(err)
	}
	return out, st
}

// GroupByHashParallelGov is the governed parallel hash aggregate: workers
// poll gov's context between morsels, charge their thread-local hash state
// against gov's budget, and recover their own panics — an operator bug in
// one worker surfaces as a *ExecError from this call instead of crashing
// the process.
func GroupByHashParallelGov(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string, workers int) (*table.Table, ParStats, error) {
	return groupByHashParallelSized(gov, t, groupCols, aggs, outName, workers, 0)
}

// groupByHashParallelSized is GroupByHashParallelGov with a presize hint for
// the group tables (0 = default sizing), used by the adaptive dispatch.
func groupByHashParallelSized(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string, workers, sizeHint int) (*table.Table, ParStats, error) {
	w := effectiveWorkers(t.NumRows(), workers)
	if w <= 1 {
		out, ks, err := groupByHashSized(gov, t, groupCols, aggs, outName, sizeHint)
		return out, ParStats{Workers: 1, RehashesAvoided: ks.RehashesAvoided}, err
	}
	queries := []MultiQuery{{GroupCols: groupCols, Aggs: aggs, OutName: outName, SizeHint: sizeHint}}
	outs, st, err := groupByMultiMorsel(gov, t, queries, w, morselRows)
	if err != nil {
		return nil, st, err
	}
	return outs[0], st, nil
}

// GroupByHashMultiParallel is GroupByHashMulti with morsel-driven
// parallelism: each worker reads a morsel once and feeds every query of the
// shared scan from that single read, preserving the §5.1 read-once property
// while splitting the scan across cores. Small inputs fall back to the
// sequential shared scan. A malformed request returns an error.
func GroupByHashMultiParallel(t *table.Table, queries []MultiQuery, workers int) ([]*table.Table, ParStats, error) {
	return GroupByHashMultiParallelGov(nil, t, queries, workers)
}

// GroupByHashMultiParallelGov is the governed parallel shared scan (see
// GroupByHashParallelGov for the governance contract).
func GroupByHashMultiParallelGov(gov *Gov, t *table.Table, queries []MultiQuery, workers int) ([]*table.Table, ParStats, error) {
	if len(queries) == 0 {
		return nil, ParStats{Workers: 1}, nil
	}
	w := effectiveWorkers(t.NumRows(), workers)
	if w <= 1 {
		outs, err := GroupByHashMultiGov(gov, t, queries)
		return outs, ParStats{Workers: 1}, err
	}
	return groupByMultiMorsel(gov, t, queries, w, morselRows)
}

// groupByMultiMorsel is the two-phase parallel core shared by the single and
// multi-query entry points. morsel is the work-unit size in rows (always
// morselRows in production; tests shrink it to exercise multi-worker merges
// on small tables).
//
// Phase 1 (local): w workers pull morsel indices from an atomic counter and
// aggregate their rows into per-worker, per-query hash tables. Because the
// counter increases monotonically, each worker processes its morsels in
// ascending row order, so a worker-local group's firstRow is the minimum row
// of that group within the worker's share.
//
// Phase 2 (merge): for each query, worker-local groups are folded into a
// final hash table by representative row; aggregate states merge via
// mergePartial (counts add, sums add, extremes compare) — partial states, not
// rows. The final group order is the minimum firstRow across workers, which
// equals the global first-appearance order of the sequential scan, making the
// output deterministic and identical to GroupByHash/GroupByHashMulti.
//
// Failure semantics: a panicking worker is recovered in its own goroutine
// and reported as a *ExecError naming the worker; the remaining workers
// drain (they stop at the next morsel boundary via the shared failed flag),
// all budget charges are released, and no partial result escapes. A
// cancelled context stops every worker at its next morsel boundary and
// returns the context's error.
func groupByMultiMorsel(gov *Gov, t *table.Table, queries []MultiQuery, w, morsel int) ([]*table.Table, ParStats, error) {
	if err := validateMulti(t, queries); err != nil {
		return nil, ParStats{}, err
	}
	n := t.NumRows()
	budget := gov.Budget()
	finals := make([]*queryState, len(queries))
	locals := make([][]*queryState, w)
	defer func() {
		var freed int64
		for _, st := range finals {
			freed += st.chargedBytes()
		}
		for _, states := range locals {
			for _, st := range states {
				freed += st.chargedBytes()
			}
		}
		budget.Release(freed)
	}()
	// Building the final states before fan-out forces lazily-built shared
	// state (the scan image and the dictionary rank tables the accumulators
	// read), so workers only read it.
	for qi, q := range queries {
		finals[qi] = newQueryState(t, q, budget, 0) // fed by the merge, never by blocks
	}
	morsels := (n + morsel - 1) / morsel
	block := min(morsel, cancelCheckRows)

	var next atomic.Int64
	var failed atomic.Bool
	var workerErr atomic.Pointer[ExecError]
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failed.Store(true)
					workerErr.CompareAndSwap(nil, &ExecError{
						Step: fmt.Sprintf("morsel worker %d", wi),
						Err:  RecoveredPanic(p),
					})
				}
			}()
			// Publish the slice before filling it so the release path sees
			// every charged state even if a constructor panics mid-build.
			states := make([]*queryState, len(queries))
			locals[wi] = states
			for qi, q := range queries {
				// A worker sees ~1/w of the rows, so its local table holds at
				// most that many groups — clamp the presize hint accordingly.
				if lim := n/w + 1; q.SizeHint > lim {
					q.SizeHint = lim
				}
				states[qi] = newQueryState(t, q, budget, block)
			}
			buf := make([]int32, block)
			for {
				if failed.Load() || gov.Err() != nil {
					return
				}
				Testing.Fire("exec.morsel.worker")
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				hi := min((m+1)*morsel, n)
				for lo := m * morsel; lo < hi; lo += block {
					rows := rowBlock(buf, lo, min(lo+block, hi))
					for _, st := range states {
						st.observe(lo, rows)
					}
				}
			}
		}(wi)
	}
	wg.Wait()

	if e := workerErr.Load(); e != nil {
		return nil, ParStats{Workers: w, Morsels: morsels}, e
	}
	if err := gov.Err(); err != nil {
		return nil, ParStats{Workers: w, Morsels: morsels}, err
	}

	mergeStart := time.Now()
	out := make([]*table.Table, len(queries))
	rehashes := 0
	for qi, q := range queries {
		final := finals[qi]
		for _, states := range locals {
			st := states[qi]
			for lg, row := range st.ht.firstRows {
				g, isNew := final.ht.groupOf(int(row))
				if first := final.ht.firstRows; !isNew && row < first[g] {
					first[g] = row
				}
				for ai, acc := range final.accs {
					acc.mergePartial(g, st.accs[ai], lg)
				}
			}
		}
		// Emit in global first-appearance order to match the sequential path.
		firstRows := final.ht.firstRows
		order := make([]int, len(firstRows))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return firstRows[order[a]] < firstRows[order[b]]
		})
		out[qi] = emitGroups(t, q.GroupCols, q.Aggs, final.accs, firstRows, order, q.OutName)
		rehashes += final.ht.rehashesAvoided()
	}
	return out, ParStats{Workers: w, Morsels: morsels, Merge: time.Since(mergeStart), RehashesAvoided: rehashes}, nil
}
