// Package catalog is the runtime registry tying together base tables,
// materialized temporary tables, physical design (indexes) and the statistics
// service. The engine resolves every table reference through it. The
// optimizer's what-if costing of not-yet-materialized intermediates (§3.2.2)
// needs no entry here: cost.Env prices every intermediate from base-table
// statistics.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"gbmqo/internal/index"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// Epoch identifies one observable state of a table's contents. Version is the
// major counter: it bumps on Register (create or replace) and Drop, i.e. any
// mutation that can rewrite or re-encode existing rows, and invalidates every
// derivation. Delta is the minor counter within a Version: it bumps on
// RegisterDelta (an append-only snapshot swap), under which existing rows and
// their dictionary codes are guaranteed stable — which is what lets the cache
// roll cached aggregates forward instead of discarding them.
type Epoch struct {
	Version uint64
	Delta   uint64
}

// Catalog registers tables and indexes. All methods are
// safe for concurrent use: queries resolve tables while the append path swaps
// in new snapshots.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*table.Table
	indexes map[string][]*index.Index
	stats   *stats.Service
	// versions counts mutations per table name: every Register (create or
	// replace) and Drop bumps the counter, so any cached derivation keyed by
	// (name, version) goes stale the moment the table's contents may differ.
	// Appends bump deltas instead (see Epoch).
	versions map[string]uint64
	deltas   map[string]uint64
}

// New creates an empty catalog backed by the given statistics service.
func New(svc *stats.Service) *Catalog {
	return &Catalog{
		tables:   make(map[string]*table.Table),
		indexes:  make(map[string][]*index.Index),
		stats:    svc,
		versions: make(map[string]uint64),
		deltas:   make(map[string]uint64),
	}
}

// Stats returns the statistics service.
func (c *Catalog) Stats() *stats.Service { return c.stats }

// Register adds or replaces a table. Replacing drops the old table's indexes
// and invalidates its statistics. The delta counter resets: a replace starts a
// fresh Version whose contents have no append lineage.
//
// A registered table is grouped, indexed, profiled and snapshotted, all of
// which rely on equal codes meaning equal values and equal values sharing a
// code. Measure columns (aggregate results, see table.AddMeasure) break
// the second half, so Register stores a copy with them re-interned
// (table.InternMeasures): a registered result groups by value.
func (c *Catalog) Register(t *table.Table) {
	t = t.InternMeasures()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, existed := c.tables[t.Name()]; existed {
		delete(c.indexes, t.Name())
		if c.stats != nil {
			c.stats.Invalidate(t.Name())
		}
	}
	c.versions[t.Name()]++
	delete(c.deltas, t.Name())
	c.tables[t.Name()] = t
}

// RegisterDelta swaps in an append-only snapshot of an existing table,
// bumping the Delta counter but not the Version: rows [0, old.NumRows) and
// all dictionary codes are unchanged, so derivations from the previous epoch
// remain mergeable rather than merely stale. from is the epoch the snapshot
// was appended to; if the table has moved since (a concurrent Register, or a
// Drop and re-Register), the swap is refused with an *EpochMovedError rather
// than installing the old lineage over the newer table. Indexes on the table are
// dropped — they were built over the old row range and an index fast path
// would silently miss appended rows. Statistics are kept: the table's
// statistics ledger is advanced to the published snapshot (stats.Advance),
// and serves every statistic clamped to what the appended rows can have
// changed.
func (c *Catalog) RegisterDelta(t *table.Table, from Epoch) (Epoch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := t.Name()
	if _, ok := c.tables[name]; !ok {
		return Epoch{}, fmt.Errorf("catalog: RegisterDelta on unknown table %q", name)
	}
	if cur := (Epoch{Version: c.versions[name], Delta: c.deltas[name]}); cur != from {
		return Epoch{}, &EpochMovedError{Table: name, From: from, Now: cur}
	}
	delete(c.indexes, name)
	if c.stats != nil {
		c.stats.Advance(c.tables[name], t)
	}
	c.deltas[name]++
	c.tables[name] = t
	return Epoch{Version: c.versions[name], Delta: c.deltas[name]}, nil
}

// EpochMovedError is RegisterDelta's refusal: the table left the epoch the
// appended snapshot was built from before the swap.
type EpochMovedError struct {
	Table     string
	From, Now Epoch
}

func (e *EpochMovedError) Error() string {
	return fmt.Sprintf("catalog: table %q moved from v%d.%d to v%d.%d under an append",
		e.Table, e.From.Version, e.From.Delta, e.Now.Version, e.Now.Delta)
}

// RestoreAt installs a recovered table at an exact epoch, bypassing the
// Register/RegisterDelta counters. Crash recovery uses it so a table rebuilt
// from a snapshot resumes at the (Version, Delta) the snapshot recorded —
// replayed WAL appends then advance Delta through RegisterDelta exactly as
// the pre-crash appends did, and any rewarmed cache entry keyed at a
// post-snapshot epoch lines up. The epoch must be at least as high as the
// table's current one (recovery runs against a fresh catalog, so normally the
// table is unknown and any epoch is fine); moving a live table backwards
// would resurrect stale cached derivations and is rejected.
func (c *Catalog) RestoreAt(t *table.Table, ep Epoch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := t.Name()
	cur := Epoch{Version: c.versions[name], Delta: c.deltas[name]}
	if ep.Version < cur.Version || (ep.Version == cur.Version && ep.Delta < cur.Delta) {
		return fmt.Errorf("catalog: RestoreAt %q at v%d.%d behind current v%d.%d",
			name, ep.Version, ep.Delta, cur.Version, cur.Delta)
	}
	delete(c.indexes, name)
	if c.stats != nil {
		c.stats.Invalidate(name)
	}
	c.versions[name] = ep.Version
	if ep.Delta == 0 {
		delete(c.deltas, name)
	} else {
		c.deltas[name] = ep.Delta
	}
	c.tables[name] = t
	return nil
}

// Version returns the table's mutation counter. It changes whenever the
// table is registered (created or replaced) or dropped, so results derived
// from one version can be recognized as stale after any mutation. Unknown
// tables report 0. Appends do not change it — see Epoch.
func (c *Catalog) Version(name string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions[name]
}

// Epoch returns the table's full (Version, Delta) epoch.
func (c *Catalog) Epoch(name string) Epoch {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Epoch{Version: c.versions[name], Delta: c.deltas[name]}
}

// TableEpoch resolves a table and its epoch in one consistent read, so a
// caller never pairs a new snapshot with a stale epoch (or vice versa).
func (c *Catalog) TableEpoch(name string) (*table.Table, Epoch, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, Epoch{Version: c.versions[name], Delta: c.deltas[name]}, ok
}

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*table.Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// MustTable resolves a table or panics; for callers that already validated.
func (c *Catalog) MustTable(name string) *table.Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown table %q", name))
	}
	return t
}

// Drop removes a table, its indexes, and its statistics. Dropping an unknown
// table is a no-op (temp-table cleanup paths may race with earlier drops).
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, existed := c.tables[name]; existed {
		c.versions[name]++
		delete(c.deltas, name)
	}
	delete(c.tables, name)
	delete(c.indexes, name)
	if c.stats != nil {
		c.stats.Invalidate(name)
	}
}

// TableNames lists registered tables in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddIndex registers an index for its table. The table must exist.
func (c *Catalog) AddIndex(ix *index.Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[ix.TableName()]; !ok {
		return fmt.Errorf("catalog: index %q references unknown table %q", ix.Name(), ix.TableName())
	}
	for _, existing := range c.indexes[ix.TableName()] {
		if existing.Name() == ix.Name() {
			return fmt.Errorf("catalog: duplicate index %q on %q", ix.Name(), ix.TableName())
		}
	}
	c.indexes[ix.TableName()] = append(c.indexes[ix.TableName()], ix)
	return nil
}

// Indexes returns the indexes registered for a table (nil when none). Callers
// must not mutate the returned slice.
func (c *Catalog) Indexes(tableName string) []*index.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.indexes[tableName]
}

// DropIndexes removes every index on a table.
func (c *Catalog) DropIndexes(tableName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.indexes, tableName)
}
