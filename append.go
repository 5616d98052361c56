package gbmqo

import (
	"gbmqo/internal/engine"
)

// AppendReport attributes one streaming append: how the table's epoch
// advanced and what incremental cache maintenance did — entries rolled
// forward by delta aggregation (Refreshed), entries dropped for lazy
// re-derivation from a maintained ancestor (Dropped), and entries invalidated
// outright (Invalidated). See DESIGN.md "Incremental cache maintenance".
type AppendReport = engine.AppendReport

// AppendTableStats is the per-table append state DB.AppendStats (and GET
// /healthz) reports: the table's current epoch and row count.
type AppendTableStats = engine.AppendTableStats

// Append appends rows to a registered base table as a streaming delta.
//
// Unlike Register, which replaces the table and orphans every cached result
// built over it, Append advances the table one append epoch in place:
// dictionaries extend so existing group-key codes stay stable, and cached
// Group By results over the table are maintained incrementally — the engine
// aggregates only the appended segment and merges it group-wise into each
// affected entry (COUNT/SUM/MIN/MAX roll forward; AVG entries are
// invalidated). Only the finest cached ancestors are maintained eagerly;
// subsumed descendants are dropped and re-derived on demand through the
// cheapest-cached-ancestor path. Results after an append are byte-identical
// to recomputing from scratch over the grown table.
//
// Each row must carry one Value per column, in schema order, with matching
// types (or nulls). Validation is all-or-nothing: a malformed batch returns
// an error with no rows appended and no cache effect.
//
// Append is safe to call concurrently with queries and Submit pages:
// appends serialize against each other, a page's run reads one snapshot —
// the table as it stood when the run began — and sharded execution either
// propagates the delta into the shard partitions or transparently falls back
// to unsharded execution. Readers holding the old *Table keep a consistent
// pre-append view.
func (db *DB) Append(name string, rows [][]Value) (*AppendReport, error) {
	var (
		rep *AppendReport
		err error
	)
	if db.dur != nil {
		// Durable path: the append is WAL-logged (fsynced per policy) before
		// it applies; the log write is the acknowledgement point.
		rep, err = db.durableAppend(name, rows)
	} else {
		rep, err = db.eng.Append(name, rows)
	}
	if err != nil {
		return nil, err
	}

	// Propagate the delta into the shard partitions (or let the coordinator
	// fall back to unsharded execution for this table). Re-read the catalog
	// so a racing later append is never mistaken for ours.
	if co := db.shardCoordinator(); co != nil {
		if t, ep, ok := db.eng.Catalog().TableEpoch(name); ok && ep.Version == rep.Version && ep.Delta >= rep.Delta {
			co.NoteAppend(name, t, ep)
		}
	}
	return rep, nil
}

// AppendStats reports the append epoch and row count of every base table
// that has seen a streaming append. Tables with no append activity are
// omitted.
func (db *DB) AppendStats() map[string]AppendTableStats { return db.eng.AppendStats() }
