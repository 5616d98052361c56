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
	// shapes (AVG), entries whose roll-forward failed or could not be
	// installed, and stale-epoch leftovers swept with the publish.
	Invalidated int
	// RefreshWall is the wall time spent on delta aggregation, merging and
	// publishing the new epoch.
	RefreshWall time.Duration
}

// AppendTableStats is the per-table append state surfaced by DB.AppendStats
// and /healthz: the table's current epoch and row count.
type AppendTableStats struct {
	Version uint64 `json:"version"`
	Delta   uint64 `json:"delta"`
	Rows    int    `json:"rows"`
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
// validation or maintenance becomes a typed error. The epoch swap inside
// Publish is the commit point — panics before it leave no trace; a panic
// rolling one entry forward is contained to that entry, which degrades to
// invalidation.
func (e *Engine) appendSafe(name string, rows [][]table.Value) (res *AppendReport, err error) {
	defer func() {
		if pnc := recover(); pnc != nil {
			res = nil
			err = &exec.ExecError{Step: "engine.append", Err: exec.RecoveredPanic(pnc)}
		}
	}()
	return e.append(name, rows)
}

// append rolls forward first, then publishes: under appendMu, and while the
// catalog still shows the old epoch, every maintained cache entry is merged
// against the appended snapshot; then one cache critical section swaps the
// catalog epoch, installs the merged entries at the new epoch and sweeps the
// old one. Readers meanwhile keep answering from the pre-append snapshot,
// and none sees the new epoch while its maintained entries are missing. A
// table that moved under the append (a concurrent Register or Drop) refuses
// the swap — a *catalog.EpochMovedError, or unknown table — and nothing is
// published.
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
	start := time.Now()
	rolls, drops := e.rollForward(name, next, oldEp)
	var newEp catalog.Epoch
	pub, err := e.cache.Publish(name, func() (uint64, uint64, error) {
		ep, err := e.cat.RegisterDelta(next, oldEp)
		newEp = ep
		return ep.Version, ep.Delta, err
	}, rolls, drops)
	if err != nil {
		return nil, err
	}
	rep.RefreshWall = time.Since(start)
	rep.TotalRows = next.NumRows()
	rep.Version, rep.Delta = newEp.Version, newEp.Delta
	rep.Refreshed, rep.Dropped, rep.Invalidated = pub.Refreshed, pub.Dropped, pub.Invalidated
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

// rollForward merges the table's cached entries at oldEp forward over the
// appended rows of next, for Publish to install. Entries with mergeable
// aggregates whose grouping set is not strictly subsumed by another mergeable
// resident are rolled (delta aggregation + group-wise merge); subsumed
// entries are returned as drops, left to lazy re-derivation; the rest
// (AVG) are neither, so Publish invalidates them. The rolled entries' delta
// Group Bys run as one shared scan of the appended rows (the §5.1 shared
// scan, applied to maintenance), and each entry then merges under its own
// panic barrier — a fault merging one degrades that entry to invalidation
// without affecting the others or the append itself; a fault in the shared
// scan degrades every rolled entry.
func (e *Engine) rollForward(name string, next *table.Table, oldEp catalog.Epoch) (rolls []cache.Roll, drops []cache.Key) {
	var cands []cache.Resident
	for _, r := range e.cache.ResidentsAt(name, oldEp.Version, oldEp.Delta) {
		if exec.Mergeable(r.Aggs) {
			cands = append(cands, r)
		}
	}

	// Finest-ancestor rule: roll r eagerly unless some other candidate
	// strictly subsumes it (superset grouping + aggregate coverage) — then r
	// is rebuilt more cheaply on demand from the rolled ancestor, so
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

	var todo []cache.Resident
	var queries []exec.MultiQuery
	for _, r := range cands {
		if subsumed(r) {
			drops = append(drops, r.Key)
			continue
		}
		if q, ok := deltaQuery(r, next); ok {
			todo, queries = append(todo, r), append(queries, q)
		}
	}
	if len(todo) == 0 {
		return rolls, drops
	}
	deltaAggs := aggregateDelta(next.DeltaView(), queries)
	if deltaAggs == nil {
		return rolls, drops
	}
	for i, r := range todo {
		if roll, ok := rollEntry(r, deltaAggs[i], queries[i].Aggs); ok {
			rolls = append(rolls, roll)
		}
	}
	return rolls, drops
}

// deltaQuery is the delta Group By that rolls r forward: r's key columns,
// resolved back to base ordinals by name so the delta aggregation emits keys
// in exactly the cached layout, and r's aggregates aligned to the cached
// table's aggregate column order. It reports false when the cached table does
// not have that shape, leaving the entry to Publish's sweep.
func deltaQuery(r cache.Resident, next *table.Table) (exec.MultiQuery, bool) {
	nKeys := r.Set.Len()
	if r.Table.NumCols() != nKeys+len(r.Aggs) {
		return exec.MultiQuery{}, false
	}
	groupCols := make([]int, nKeys)
	for i := 0; i < nKeys; i++ {
		ord := next.ColIndex(r.Table.Col(i).Name())
		if ord < 0 || !r.Set.Has(ord) {
			return exec.MultiQuery{}, false
		}
		groupCols[i] = ord
	}
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
			return exec.MultiQuery{}, false
		}
	}
	return exec.MultiQuery{GroupCols: groupCols, Aggs: aggs, OutName: r.Table.Name() + "__dagg"}, true
}

// aggregateDelta runs every query over the delta segment in one shared scan,
// each on the kernel the adaptive chooser picks for it, under a panic
// barrier; it returns the results in query order, or nil on any failure.
func aggregateDelta(delta *table.Table, queries []exec.MultiQuery) (outs []*table.Table) {
	defer func() {
		if recover() != nil {
			outs = nil
		}
	}()
	gov := exec.NewGov(context.Background(), exec.NewMemBudget(0))
	choices := make([]exec.KernelChoice, len(queries))
	for i, q := range queries {
		choices[i] = exec.ChooseKernel(exec.ChooserInput{Rows: delta.NumRows(), GroupCols: len(q.GroupCols),
			DenseDomain: exec.DenseDomain(delta, q.GroupCols), Budget: gov.Budget()})
	}
	outs, _, err := exec.GroupByMultiGov(gov, delta, queries, choices)
	if err != nil {
		return nil
	}
	return outs
}

// rollEntry merges deltaAgg, the delta Group By of r (see deltaQuery), into
// r's cached table and prepares the result for Publish. Runs under its own
// panic barrier; any failure reports false and leaves the entry to Publish's
// sweep.
func rollEntry(r cache.Resident, deltaAgg *table.Table, aggs []exec.Agg) (roll cache.Roll, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	merged, err := exec.MergeAppendedGroups(r.Table, deltaAgg, r.Set.Len(), aggs, r.Table.Name())
	if err != nil {
		return cache.Roll{}, false
	}
	exec.Testing.Fire("cache.refresh")
	return r.Roll(merged), true
}

// AppendStats reports the append epoch and row count of every registered
// base table that has seen an append.
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
		if ep.Delta == 0 {
			continue
		}
		out[name] = AppendTableStats{Version: ep.Version, Delta: ep.Delta, Rows: t.NumRows()}
	}
	return out
}
