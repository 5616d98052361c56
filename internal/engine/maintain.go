package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/catalog"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// AppendReport attributes one streaming append: how the table advanced and
// what happened to every cached entry that depended on the previous epoch.
type AppendReport struct {
	// Table is the appended table; Rows the rows appended this call;
	// TotalRows the table's row count after the append.
	Table     string
	Rows      int
	TotalRows int
	// Version and Delta are the table's epoch after the append.
	Version uint64
	Delta   uint64
	// Refreshed counts cached entries rolled forward to the new epoch by
	// delta aggregation + merge.
	Refreshed int
	// Dropped counts cached entries deliberately dropped for lazy
	// re-derivation from a refreshed finer ancestor (the paper's
	// smallest-parent rule applied to maintenance: only the finest cached
	// ancestors are maintained eagerly).
	Dropped int
	// Invalidated counts entries removed outright: non-mergeable aggregate
	// shapes (AVG), refresh failures, and stale-epoch leftovers swept after
	// maintenance.
	Invalidated int
	// RefreshWall is the wall time spent on delta aggregation and merging.
	RefreshWall time.Duration
}

// AppendTableStats is the per-table append/maintenance health surfaced by
// DB.AppendStats and /healthz: the table's current epoch and its refresh lag
// (cached entries dropped at the last appends that are still pending lazy
// re-derivation from a maintained ancestor).
type AppendTableStats struct {
	Version     uint64 `json:"version"`
	Delta       uint64 `json:"delta"`
	Rows        int    `json:"rows"`
	PendingLazy int    `json:"pending_lazy"`
}

// SetAppendObserver installs fn to observe every Append outcome — the hook
// the observability registry uses for append/refresh metrics. fn must be safe
// for concurrent calls; on failure it receives (nil, err). Nil removes it.
func (e *Engine) SetAppendObserver(fn func(*AppendReport, error)) {
	if fn == nil {
		e.appendObs.Store(nil)
		return
	}
	e.appendObs.Store(&fn)
}

// Append appends rows to a registered base table as a streaming delta: the
// table advances one append epoch (Version stays, Delta bumps), dictionaries
// extend in place so existing group-key codes stay stable, and instead of
// orphaning every cached Group By result the engine aggregates only the
// appended segment and merges it into the affected entries (COUNT/SUM/MIN/MAX
// roll forward; AVG falls back to invalidation). Only the finest cached
// ancestors are maintained eagerly — cached descendants subsumed by a
// maintained ancestor are dropped and lazily re-derived by the next query
// through the existing cheapest-cached-ancestor machinery.
//
// Appends are serialized per engine. A failure (validation, injected fault)
// before the catalog swap leaves the table, the cache, and all shared
// dictionary state exactly as they were.
func (e *Engine) Append(name string, rows [][]table.Value) (*AppendReport, error) {
	res, err := e.appendSafe(name, rows)
	if fn := e.appendObs.Load(); fn != nil {
		(*fn)(res, err)
	}
	return res, err
}

// ValidateAppend checks rows against the table's schema without applying
// anything — the durability layer calls it before writing the WAL record so
// an append that could never apply is rejected before it is made durable.
func (e *Engine) ValidateAppend(name string, rows [][]table.Value) error {
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("engine: cannot append to reserved table %q", name)
	}
	cur, _, ok := e.cat.TableEpoch(name)
	if !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	return validateAppendRows(cur, rows)
}

// appendSafe is the append path behind a panic barrier: a panic anywhere in
// validation or maintenance becomes a typed error. The catalog swap is the
// commit point — panics before it leave no trace; panics after it (cache
// maintenance) are contained per entry and degrade to invalidation.
func (e *Engine) appendSafe(name string, rows [][]table.Value) (res *AppendReport, err error) {
	defer func() {
		if pnc := recover(); pnc != nil {
			res = nil
			err = &exec.ExecError{Step: "engine.append", Err: exec.RecoveredPanic(pnc)}
		}
	}()
	return e.append(name, rows)
}

func (e *Engine) append(name string, rows [][]table.Value) (*AppendReport, error) {
	if strings.HasPrefix(name, "__") {
		return nil, fmt.Errorf("engine: cannot append to reserved table %q", name)
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()

	cur, oldEp, ok := e.cat.TableEpoch(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	if err := validateAppendRows(cur, rows); err != nil {
		return nil, err
	}
	rep := &AppendReport{Table: name, Rows: len(rows), TotalRows: cur.NumRows(),
		Version: oldEp.Version, Delta: oldEp.Delta}
	if len(rows) == 0 {
		return rep, nil
	}

	// The failpoint fires before any shared state is touched: an injected
	// fault here aborts the append with dictionaries, code backing and the
	// catalog untouched (the abort-safety the chaos suite asserts). Only
	// after this line does Table.Append extend shared dictionary state.
	exec.Testing.Fire("table.append")

	next := cur.Append(rows)
	newEp, err := e.cat.RegisterDelta(next)
	if err != nil {
		return nil, err
	}
	rep.TotalRows = next.NumRows()
	rep.Version, rep.Delta = newEp.Version, newEp.Delta

	start := time.Now()
	e.maintainCache(name, next, oldEp, newEp, rep)
	rep.RefreshWall = time.Since(start)

	// Sweep whatever is still keyed to a dead epoch — entries maintenance
	// chose to drop, entries whose refresh failed, stragglers admitted by
	// concurrent queries that raced the epoch bump — and reclaim statistics
	// built over the dead snapshot.
	rep.Invalidated += e.cache.InvalidateBelow(name, newEp.Version, newEp.Delta)
	e.cat.Stats().DropStale(name, next)
	return rep, nil
}

// validateAppendRows rejects malformed rows with an error before any shared
// state is touched (Table.Append would panic, but by then validation must
// already have passed — an abort mid-extension would corrupt shared lookup
// maps).
func validateAppendRows(t *table.Table, rows [][]table.Value) error {
	for ri, row := range rows {
		if len(row) != t.NumCols() {
			return fmt.Errorf("engine: append row %d has %d values, want %d", ri, len(row), t.NumCols())
		}
		for ci, v := range row {
			if !v.Null && v.Typ != t.Col(ci).Type() {
				return fmt.Errorf("engine: append row %d column %q: %s value in %s column",
					ri, t.Col(ci).Name(), v.Typ, t.Col(ci).Type())
			}
		}
	}
	return nil
}

// maintainCache rolls the table's cached entries forward across one append.
// Entries with mergeable aggregates whose grouping set is not strictly
// subsumed by another maintained resident are refreshed eagerly (delta
// aggregation + group-wise merge); subsumed entries are dropped and counted
// as pending lazy re-derivation; non-mergeable entries are invalidated. Each
// entry is maintained under its own panic barrier — a fault refreshing one
// entry degrades that entry to invalidation (via the caller's sweep) without
// affecting the others or the append itself.
func (e *Engine) maintainCache(name string, next *table.Table, oldEp, newEp catalog.Epoch, rep *AppendReport) {
	if e.cache == nil {
		return
	}
	residents := e.cache.ResidentsAt(name, oldEp.Version, oldEp.Delta)
	if len(residents) == 0 {
		return
	}

	// Partition residents: mergeable shapes are roll-forward candidates,
	// the rest are invalidated outright.
	var cands []cache.Resident
	for _, r := range residents {
		if exec.Mergeable(r.Aggs) {
			cands = append(cands, r)
			continue
		}
		if e.cache.Invalidate(r.Key) {
			rep.Invalidated++
		}
	}

	// Finest-ancestor rule: refresh r eagerly unless some other candidate
	// strictly subsumes it (superset grouping + aggregate coverage) — then r
	// is rebuilt more cheaply on demand from the refreshed ancestor, so
	// maintaining it now would duplicate work the lattice already prices.
	// Lazy-dropping requires r's aggregates to survive the re-aggregation
	// path (Rollupable), which every mergeable list does.
	subsumed := func(r cache.Resident) bool {
		for _, s := range cands {
			if s.Key == r.Key || s.Set == r.Set {
				continue
			}
			if r.Set.SubsetOf(s.Set) && cache.CoversAggs(s.Aggs, r.Aggs) {
				return true
			}
		}
		return false
	}

	var delta *table.Table
	lazyDropped := 0
	for _, r := range cands {
		if subsumed(r) {
			if e.cache.Invalidate(r.Key) {
				rep.Dropped++
				lazyDropped++
			}
			continue
		}
		if delta == nil {
			delta = next.DeltaView()
		}
		if e.refreshEntry(r, delta, newEp) {
			rep.Refreshed++
		}
		// A failed refresh leaves the old-epoch entry for the sweep to count.
	}
	if lazyDropped > 0 {
		e.lazyMu.Lock()
		if e.pendingLazy == nil {
			e.pendingLazy = make(map[string]int)
		}
		e.pendingLazy[name] += lazyDropped
		e.lazyMu.Unlock()
	}
}

// refreshEntry rolls one cached entry forward: aggregate the delta segment
// with the adaptive kernel chooser, merge group-wise into the cached result,
// and swap the entry to the new epoch's key. Runs under its own panic
// barrier; any failure reports false and leaves the entry to the sweep.
func (e *Engine) refreshEntry(r cache.Resident, delta *table.Table, newEp catalog.Epoch) (refreshed bool) {
	defer func() {
		if recover() != nil {
			refreshed = false
		}
	}()
	nKeys := r.Set.Len()
	if r.Table.NumCols() != nKeys+len(r.Aggs) {
		return false
	}
	// Resolve the cached table's key columns back to base ordinals by name,
	// so the delta aggregation emits keys in exactly the cached layout.
	groupCols := make([]int, nKeys)
	for i := 0; i < nKeys; i++ {
		ord := delta.ColIndex(r.Table.Col(i).Name())
		if ord < 0 || !r.Set.Has(ord) {
			return false
		}
		groupCols[i] = ord
	}
	// Align the aggregate list to the cached table's aggregate column order.
	aggs := make([]exec.Agg, len(r.Aggs))
	for i := range aggs {
		colName := r.Table.Col(nKeys + i).Name()
		found := false
		for _, a := range r.Aggs {
			if a.Name == colName {
				aggs[i], found = a, true
				break
			}
		}
		if !found {
			return false
		}
	}
	gov := exec.NewGov(context.Background(), exec.NewMemBudget(0))
	deltaAgg, _, err := exec.GroupByAdaptiveGov(gov, delta, groupCols, aggs, r.Table.Name()+"__dagg", exec.AdaptiveHints{})
	if err != nil {
		return false
	}
	merged, err := exec.MergeAppendedGroups(r.Table, deltaAgg, nKeys, aggs, r.Table.Name())
	if err != nil {
		return false
	}
	newKey := cache.Key{Table: r.Key.Table, Version: newEp.Version, Delta: newEp.Delta,
		Set: r.Key.Set, AggSig: r.Key.AggSig}
	return e.cache.Refresh(r.Key, newKey, merged)
}

// noteLazyServed decrements a table's pending-lazy-re-derivation count when a
// query answers from a cached ancestor — the event that actually repopulates
// a dropped descendant.
func (e *Engine) noteLazyServed(name string) {
	e.lazyMu.Lock()
	if n, ok := e.pendingLazy[name]; ok {
		if n <= 1 {
			delete(e.pendingLazy, name)
		} else {
			e.pendingLazy[name] = n - 1
		}
	}
	e.lazyMu.Unlock()
}

// AppendStats reports per-table append epochs and refresh lag for every
// registered base table that has seen an append or has pending lazy work.
func (e *Engine) AppendStats() map[string]AppendTableStats {
	out := make(map[string]AppendTableStats)
	for _, name := range e.cat.TableNames() {
		if strings.HasPrefix(name, "__") {
			continue
		}
		t, ep, ok := e.cat.TableEpoch(name)
		if !ok {
			continue
		}
		e.lazyMu.Lock()
		pending := e.pendingLazy[name]
		e.lazyMu.Unlock()
		if ep.Delta == 0 && pending == 0 {
			continue
		}
		out[name] = AppendTableStats{Version: ep.Version, Delta: ep.Delta,
			Rows: t.NumRows(), PendingLazy: pending}
	}
	return out
}
