// Package cache implements the cross-query Group By result cache: a
// concurrency-safe store of materialized Group By results, keyed by
// (base-table name, base-table version, grouping column set, aggregate list),
// that survives across queries. It is the repeated-workload extension of the
// paper's per-batch temp tables — instead of dying at the end of one
// multi-query optimization, small intermediates are retained and answer
// later queries, either exactly or by re-aggregation from a cached lattice
// ancestor (any entry whose grouping columns are a superset of the query's).
//
// Admission is cost-based: an entry is admitted with an estimated benefit —
// the plan cost a future hit saves versus recomputing from the base relation
// — amortized over the observed demand for its key. Eviction is LRU-W by
// benefit-per-byte: when the byte budget is exceeded, the entries with the
// lowest benefit·uses/bytes score go first, ties broken toward the least
// recently used. Base-table mutation bumps the version held in the catalog;
// entries keyed to older versions can never match again and are swept by
// InvalidateBelow.
//
// Concurrency: an RWMutex guards the entry map (lookups take the read lock;
// per-entry usage counters are atomics), and an embedded singleflight group
// lets callers collapse concurrent identical computations so each key is
// computed once per stampede.
package cache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// Key identifies one cacheable Group By result.
type Key struct {
	// Table is the base relation's catalog name.
	Table string
	// Version is the base relation's catalog version when the result was
	// computed; a mutated (re-registered) table gets a new version, so stale
	// entries can never be returned.
	Version uint64
	// Delta is the append-epoch minor counter within Version: each streaming
	// append bumps it. Entries at an older delta are not served directly, but
	// unlike a version bump they are candidates for roll-forward (Refresh)
	// rather than unconditional invalidation.
	Delta uint64
	// Set is the grouping column set (base-table ordinals).
	Set colset.Set
	// AggSig is the canonical signature of the aggregate list the cached
	// table carries (see AggSignature).
	AggSig string
}

// String renders the key (also the singleflight key for this result).
func (k Key) String() string {
	return fmt.Sprintf("%s@v%d.%d|%s|%s", k.Table, k.Version, k.Delta, k.Set, k.AggSig)
}

// KeyOf builds the key for a query's grouping set and aggregate list at an
// append epoch (version major, delta minor).
func KeyOf(tableName string, version, delta uint64, set colset.Set, aggs []exec.Agg) Key {
	return Key{Table: tableName, Version: version, Delta: delta, Set: set, AggSig: AggSignature(aggs)}
}

// AggSignature canonicalizes an aggregate list: kind, source ordinal and
// output name per aggregate, order-sensitive. COUNT(*) ignores its source
// column, so it is normalized out of the signature.
func AggSignature(aggs []exec.Agg) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		col := a.Col
		if a.Kind == exec.AggCountStar {
			col = -1
		}
		parts[i] = fmt.Sprintf("%d:%d:%s", a.Kind, col, a.Name)
	}
	return strings.Join(parts, ",")
}

// Rollupable reports whether every aggregate in the list can be re-aggregated
// through a materialized intermediate (AVG cannot: the average of averages is
// wrong, and exec.Agg.Rollup panics on it).
func Rollupable(aggs []exec.Agg) bool {
	for _, a := range aggs {
		if a.Kind == exec.AggAvg {
			return false
		}
	}
	return true
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	// Hits counts exact-key lookups answered from the cache.
	Hits int64
	// AncestorHits counts queries answered by re-aggregating a cached
	// superset entry (recorded by the engine via TouchAncestor).
	AncestorHits int64
	// Misses counts lookups that found nothing usable (recorded by the
	// engine via NoteMiss, after the ancestor search also failed).
	Misses int64
	// Admissions and Rejections count Offer outcomes.
	Admissions int64
	Rejections int64
	// Evictions counts entries displaced by admission pressure or ShrinkTo.
	Evictions int64
	// Invalidations counts entries swept because their table version went
	// stale.
	Invalidations int64
	// Refreshes counts entries rolled forward in place to a new append epoch
	// by delta maintenance instead of being invalidated.
	Refreshes int64
	// Corruptions counts hits whose stored checksum no longer matched the
	// entry's bytes; each one evicted and quarantined the entry instead of
	// serving a corrupt result.
	Corruptions int64
	// FlightLeads counts singleflight computations executed; FlightShared
	// counts callers that piggybacked on another caller's computation.
	FlightLeads  int64
	FlightShared int64
	// Bytes and Entries describe current residency.
	Bytes   int64
	Entries int
}

// Config tunes a Cache.
type Config struct {
	// MaxBytes is the byte budget for resident entries (required, > 0).
	MaxBytes int64
	// MinBenefitPerByte rejects candidates whose amortized benefit density
	// falls below this floor (0 admits everything that fits).
	MinBenefitPerByte float64
}

// entry is one cached result.
type entry struct {
	key     Key
	aggs    []exec.Agg
	tbl     *table.Table
	bytes   int64
	benefit float64 // estimated plan cost one exact hit saves vs base
	sum     uint64  // checksumTable(tbl), fixed at admission

	uses     atomic.Int64  // demanded-or-hit count, the W in LRU-W
	lastUsed atomic.Uint64 // logical clock of the last touch
}

// score is the eviction priority: benefit per byte, amortized over observed
// demand. Higher scores survive longer.
func (e *entry) score() float64 {
	uses := e.uses.Load()
	if uses < 1 {
		uses = 1
	}
	b := e.bytes
	if b < 1 {
		b = 1
	}
	return e.benefit * float64(uses) / float64(b)
}

// demandCap bounds the miss-frequency map; past it the counts reset, making
// observed frequency approximate instead of unbounded state.
const demandCap = 1 << 16

// Cache is the concurrency-safe cross-query result cache.
type Cache struct {
	cfg Config

	mu      sync.RWMutex
	entries map[Key]*entry
	bytes   int64

	// epochs counts the resident entries of each table per (Version, Delta)
	// epoch, so InvalidateBelow can see under the read lock that a table
	// holds nothing stale. Every insert into entries counts in (Offer,
	// Refresh) and every removal counts out (evictLocked). Guarded by mu.
	epochs map[string]map[epoch]int

	// quarantined marks keys whose entries failed checksum verification;
	// they are never re-admitted (whatever produced the corruption — a stray
	// write through a shared slice, a buggy operator — would poison the same
	// bytes again). Guarded by mu.
	quarantined map[Key]bool

	dmu    sync.Mutex
	demand map[Key]int64 // requests seen for not-yet-cached keys

	clock atomic.Uint64

	hits, ancHits, misses          atomic.Int64
	admissions, rejections         atomic.Int64
	evictions, invalidations       atomic.Int64
	refreshes                      atomic.Int64
	corruptions                    atomic.Int64
	flightLeads, flightSharedCalls atomic.Int64

	flight flightGroup
}

// New creates a cache with the given configuration.
func New(cfg Config) *Cache {
	return &Cache{
		cfg:         cfg,
		entries:     make(map[Key]*entry),
		epochs:      make(map[string]map[epoch]int),
		quarantined: make(map[Key]bool),
		demand:      make(map[Key]int64),
	}
}

// MaxBytes returns the configured byte budget.
func (c *Cache) MaxBytes() int64 { return c.cfg.MaxBytes }

// Get returns the cached table for an exact key, recording demand either way.
// The entry's checksum is verified before it is served: a mismatch evicts and
// quarantines the key, bumps Stats.Corruptions, and reports a miss — a
// corrupt result is never returned.
func (c *Cache) Get(key Key) (*table.Table, bool) {
	return c.get(key, true)
}

// Recheck is Get for a key whose miss the caller has already recorded: a
// resident entry is served exactly as Get serves it, but an absent key records
// no second unit of demand.
func (c *Cache) Recheck(key Key) (*table.Table, bool) {
	return c.get(key, false)
}

func (c *Cache) get(key Key, noteDemand bool) (*table.Table, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil {
		if noteDemand {
			c.bumpDemand(key)
		}
		return nil, false
	}
	if checksumTable(e.tbl) != e.sum {
		c.quarantine(key, e)
		return nil, false
	}
	e.uses.Add(1)
	e.lastUsed.Store(c.clock.Add(1))
	c.hits.Add(1)
	return e.tbl, true
}

// quarantine handles a checksum mismatch detected on key's entry: evict it,
// permanently bar the key from re-admission, and count the corruption. The
// entry is re-checked under the write lock so two concurrent detections count
// once.
func (c *Cache) quarantine(key Key, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != e {
		return // already evicted by a concurrent detection or invalidation
	}
	c.evictLocked(e)
	c.quarantined[key] = true
	c.corruptions.Add(1)
}

// checksumTable fingerprints a cached table: FNV-64a over the column names,
// the row-major scan image, and each measure column's value slice — a measure
// column's codes only say which rows are NULL (see table.MeasureColumn), so
// its values must be hashed for the fingerprint to see an aggregate at all.
// The image is built lazily and cached by the table, and Offer forces it
// before admission, so hashing here reads stable bytes.
func checksumTable(t *table.Table) uint64 {
	h := fnv.New64a()
	for i := 0; i < t.NumCols(); i++ {
		io.WriteString(h, t.Col(i).Name())
		h.Write([]byte{0})
	}
	img, _ := t.RowImage()
	h.Write(img)
	for i := 0; i < t.NumCols(); i++ {
		if c := t.Col(i); c.Measure() {
			h.Write(binary.LittleEndian.AppendUint64(nil, foldMeasure(c)))
		}
	}
	return h.Sum64()
}

// foldMeasure hashes a measure column's dictionary values a 64-bit word at a
// time — an xor-multiply-xorshift step per value, so a hit's verification
// pays one multiply per aggregate value rather than FNV's eight.
func foldMeasure(c *table.Column) uint64 {
	ints, floats := c.NumericDict()
	h := uint64(len(ints) + len(floats))
	for _, v := range ints {
		h = mixWord(h, uint64(v))
	}
	for _, v := range floats {
		h = mixWord(h, math.Float64bits(v))
	}
	return h
}

func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// Ancestor is one lattice-lookup candidate: a cached entry whose grouping
// columns are a superset of the query's and whose aggregate list covers the
// query's, so the query can be answered by re-aggregating its table.
type Ancestor struct {
	Key   Key
	Set   colset.Set
	Table *table.Table
	Aggs  []exec.Agg
}

// Ancestors returns every cached entry that can answer a query over set with
// the given aggregates by re-aggregation: same table and version, a superset
// grouping, and aggregate coverage. The caller (the engine) picks the
// cheapest candidate with its cost model — the paper's compute-from-the-
// smallest-parent rule applied to the cache.
func (c *Cache) Ancestors(tableName string, version, delta uint64, set colset.Set, queryAggs []exec.Agg) []Ancestor {
	if c == nil || !Rollupable(queryAggs) {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Ancestor
	for k, e := range c.entries {
		if k.Table != tableName || k.Version != version || k.Delta != delta {
			continue
		}
		if !set.SubsetOf(k.Set) {
			continue
		}
		if !CoversAggs(e.aggs, queryAggs) {
			continue
		}
		out = append(out, Ancestor{Key: k, Set: k.Set, Table: e.tbl, Aggs: e.aggs})
	}
	return out
}

// CoversAggs reports whether the entry's aggregate list contains every query
// aggregate (same kind, output name, and — except COUNT(*) — source column).
// The append-maintenance path uses it to decide whether one resident entry
// subsumes another when picking the finest ancestors to refresh eagerly.
func CoversAggs(have, want []exec.Agg) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Kind == w.Kind && h.Name == w.Name && (w.Kind == exec.AggCountStar || h.Col == w.Col) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TouchAncestor records that an entry answered a query as a lattice ancestor:
// its usage weight and recency bump exactly like an exact hit.
func (c *Cache) TouchAncestor(key Key) {
	if c == nil {
		return
	}
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil {
		return
	}
	e.uses.Add(1)
	e.lastUsed.Store(c.clock.Add(1))
	c.ancHits.Add(1)
}

// NoteMiss records that a query found neither an exact entry nor a usable
// ancestor.
func (c *Cache) NoteMiss() {
	if c == nil {
		return
	}
	c.misses.Add(1)
}

// Offer submits a computed result for admission. The decision is cost-based:
// the candidate's score is its benefit (estimated plan cost one future exact
// hit saves) amortized over the demand observed for its key, per byte. It is
// admitted when it fits the byte budget after evicting only strictly
// lower-scored entries; a candidate that would require evicting
// better-than-itself entries is rejected. Returns whether it was admitted.
//
// The table's lazy row-major scan image is forced here, outside the lock:
// cached tables are shared by concurrent queries, and the image must never be
// built by two readers at once.
func (c *Cache) Offer(key Key, aggs []exec.Agg, t *table.Table, benefit float64) bool {
	if c == nil || t == nil {
		return false
	}
	exec.Testing.Fire("cache.admit")
	t.RowImage()
	sum := checksumTable(t)
	bytes := t.MemSize()
	if bytes < 1 {
		bytes = 1
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quarantined[key] {
		c.rejections.Add(1)
		return false
	}
	if _, exists := c.entries[key]; exists {
		return false
	}
	if bytes > c.cfg.MaxBytes {
		c.rejections.Add(1)
		return false
	}
	uses := c.takeDemand(key)
	if uses < 1 {
		uses = 1
	}
	score := benefit * float64(uses) / float64(bytes)
	if score < c.cfg.MinBenefitPerByte {
		c.rejections.Add(1)
		return false
	}
	for c.bytes+bytes > c.cfg.MaxBytes {
		victim := c.victimLocked()
		if victim == nil || victim.score() >= score {
			c.rejections.Add(1)
			return false
		}
		c.evictLocked(victim)
		c.evictions.Add(1)
	}
	e := &entry{key: key, aggs: append([]exec.Agg(nil), aggs...), tbl: t, bytes: bytes, benefit: benefit, sum: sum}
	e.uses.Store(uses)
	e.lastUsed.Store(c.clock.Add(1))
	c.insertLocked(e)
	c.admissions.Add(1)
	return true
}

// victimLocked returns the entry with the lowest score, ties broken toward
// the least recently used (the LRU-W order). Callers hold c.mu.
func (c *Cache) victimLocked() *entry {
	var victim *entry
	var vScore float64
	for _, e := range c.entries {
		s := e.score()
		if victim == nil || s < vScore ||
			(s == vScore && e.lastUsed.Load() < victim.lastUsed.Load()) {
			victim, vScore = e, s
		}
	}
	return victim
}

// epoch is one (Version, Delta) append epoch of a table.
type epoch struct{ version, delta uint64 }

// insertLocked makes e resident. Callers hold c.mu and count the admission.
func (c *Cache) insertLocked(e *entry) {
	c.entries[e.key] = e
	c.bytes += e.bytes
	eps := c.epochs[e.key.Table]
	if eps == nil {
		eps = make(map[epoch]int)
		c.epochs[e.key.Table] = eps
	}
	eps[epoch{e.key.Version, e.key.Delta}]++
}

// evictLocked removes one entry. Callers hold c.mu and count the eviction.
func (c *Cache) evictLocked(e *entry) {
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	eps := c.epochs[e.key.Table]
	ep := epoch{e.key.Version, e.key.Delta}
	if eps[ep]--; eps[ep] == 0 {
		delete(eps, ep)
		if len(eps) == 0 {
			delete(c.epochs, e.key.Table)
		}
	}
}

// ShrinkTo evicts lowest-scored entries until residency is at most maxBytes,
// returning the bytes freed. The engine calls it before running under a
// memory budget so the cache yields memory before operators must degrade.
func (c *Cache) ShrinkTo(maxBytes int64) int64 {
	if c == nil {
		return 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := int64(0)
	for c.bytes > maxBytes {
		victim := c.victimLocked()
		if victim == nil {
			break
		}
		c.evictLocked(victim)
		c.evictions.Add(1)
		freed += victim.bytes
	}
	return freed
}

// InvalidateBelow sweeps every entry of the table whose epoch differs from
// (version, delta) — a mutated base relation invalidates all dependent
// results, and append maintenance sweeps the old-epoch leftovers it chose not
// to (or failed to) roll forward. Returns the number of entries removed.
//
// Every cache-served request calls it, and almost always nothing is stale:
// that case reads the epoch counts under the read lock and returns, and only
// a table holding another epoch's entries pays the write lock and the walk.
func (c *Cache) InvalidateBelow(tableName string, version, delta uint64) int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	eps := c.epochs[tableName]
	_, current := eps[epoch{version, delta}]
	stale := len(eps) > 1 || (len(eps) == 1 && !current)
	c.mu.RUnlock()
	if !stale {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if k.Table == tableName && (k.Version != version || k.Delta != delta) {
			c.evictLocked(e)
			c.invalidations.Add(1)
			n++
		}
	}
	return n
}

// Resident describes one resident entry of a table at a given epoch, with
// everything append maintenance needs to decide refresh vs. drop: the full
// key, grouping set, aggregate list, and the cached table itself.
type Resident struct {
	Key   Key
	Set   colset.Set
	Aggs  []exec.Agg
	Table *table.Table
}

// ResidentsAt lists the entries of tableName at exactly (version, delta).
// The append path calls it with the pre-append epoch to find the entries
// eligible for roll-forward.
func (c *Cache) ResidentsAt(tableName string, version, delta uint64) []Resident {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Resident
	for k, e := range c.entries {
		if k.Table == tableName && k.Version == version && k.Delta == delta {
			out = append(out, Resident{Key: k, Set: k.Set, Aggs: e.aggs, Table: e.tbl})
		}
	}
	return out
}

// Invalidate removes one entry by exact key, reporting whether it was
// resident. Append maintenance uses it for targeted invalidation of
// non-mergeable entries (AVG) and of entries it deliberately leaves to lazy
// re-derivation.
func (c *Cache) Invalidate(key Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.evictLocked(e)
	c.invalidations.Add(1)
	return true
}

// Refresh replaces the entry at oldKey with a rolled-forward table under
// newKey, preserving the entry's benefit, observed usage weight and recency —
// the entry is the *same* result advanced one append epoch, so its eviction
// standing carries over. The table's scan image is forced and re-checksummed
// (the merged table is new bytes). If the refreshed entry grew past the byte
// budget, strictly lower-scored entries are evicted to make room, exactly as
// in Offer; if room cannot be made, the old entry is dropped and the refresh
// reported as false (the caller falls back to invalidation semantics — the
// sweep has nothing left to do either way). A quarantined newKey is never
// admitted.
func (c *Cache) Refresh(oldKey, newKey Key, t *table.Table) bool {
	if c == nil || t == nil {
		return false
	}
	exec.Testing.Fire("cache.refresh")
	t.RowImage()
	sum := checksumTable(t)
	bytes := t.MemSize()
	if bytes < 1 {
		bytes = 1
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.entries[oldKey]
	if !ok {
		return false
	}
	c.evictLocked(old)
	if c.quarantined[newKey] {
		c.invalidations.Add(1)
		return false
	}
	if _, exists := c.entries[newKey]; exists {
		// Someone already computed the new epoch directly; keep theirs.
		c.invalidations.Add(1)
		return false
	}
	if bytes > c.cfg.MaxBytes {
		c.invalidations.Add(1)
		return false
	}
	score := old.benefit * float64(max64(old.uses.Load(), 1)) / float64(bytes)
	for c.bytes+bytes > c.cfg.MaxBytes {
		victim := c.victimLocked()
		if victim == nil || victim.score() >= score {
			c.invalidations.Add(1)
			return false
		}
		c.evictLocked(victim)
		c.evictions.Add(1)
	}
	e := &entry{key: newKey, aggs: old.aggs, tbl: t, bytes: bytes, benefit: old.benefit, sum: sum}
	e.uses.Store(old.uses.Load())
	e.lastUsed.Store(c.clock.Add(1))
	c.insertLocked(e)
	c.refreshes.Add(1)
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// DropTable removes every entry of the named table regardless of version.
func (c *Cache) DropTable(tableName string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if k.Table == tableName {
			c.evictLocked(e)
			c.invalidations.Add(1)
		}
	}
}

// Bytes returns current residency.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Snapshot returns a point-in-time view of the counters and residency.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.RLock()
	bytes, entries := c.bytes, len(c.entries)
	c.mu.RUnlock()
	return Stats{
		Hits:          c.hits.Load(),
		AncestorHits:  c.ancHits.Load(),
		Misses:        c.misses.Load(),
		Admissions:    c.admissions.Load(),
		Rejections:    c.rejections.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Refreshes:     c.refreshes.Load(),
		Corruptions:   c.corruptions.Load(),
		FlightLeads:   c.flightLeads.Load(),
		FlightShared:  c.flightSharedCalls.Load(),
		Bytes:         bytes,
		Entries:       entries,
	}
}

// Do collapses concurrent identical computations: the first caller for key
// runs fn, concurrent callers for the same key wait and share the outcome.
func (c *Cache) Do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	val, err, shared = c.flight.do(key, fn)
	if shared {
		c.flightSharedCalls.Add(1)
	} else {
		c.flightLeads.Add(1)
	}
	return val, err, shared
}

// bumpDemand records a request for a not-yet-cached key; the count weights
// the key's admission score when its result is later offered.
func (c *Cache) bumpDemand(key Key) {
	c.dmu.Lock()
	if len(c.demand) >= demandCap {
		c.demand = make(map[Key]int64) // approximate: reset rather than grow unbounded
	}
	c.demand[key]++
	c.dmu.Unlock()
}

// takeDemand consumes the demand count observed for a key.
func (c *Cache) takeDemand(key Key) int64 {
	c.dmu.Lock()
	n := c.demand[key]
	delete(c.demand, key)
	c.dmu.Unlock()
	return n
}
