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
// entries keyed to older epochs can never match again and are swept by
// InvalidateBelow. An append moves a table's epoch through Publish, which
// installs the entries maintenance rolled forward in the same critical
// section, so no reader sees the new epoch without them.
//
// Concurrency: an RWMutex guards the entry map (lookups take the read lock;
// per-entry usage counters are atomics), and an embedded singleflight group
// lets callers collapse concurrent identical computations so each key is
// computed once per stampede.
package cache

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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
	// unlike a version bump they are candidates for roll-forward (Publish)
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
	sig := make([]byte, 0, len(aggs)*12)
	for i, a := range aggs {
		if i > 0 {
			sig = append(sig, ',')
		}
		sig = a.AppendSig(sig)
	}
	return string(sig)
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
	// Refreshes counts entries Publish rolled forward to a new append epoch
	// by delta maintenance instead of being invalidated.
	Refreshes int64
	// Corruptions counts hits whose stored fingerprint no longer matched the
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
}

// entry is one cached result.
type entry struct {
	key     Key
	aggs    []exec.Agg
	tbl     *table.Table
	bytes   int64
	benefit float64 // estimated plan cost one exact hit saves vs base
	fp      uint64  // fingerprint(tbl), fixed at admission; what every hit verifies
	sum     uint64  // the sum of terms fp seals (see printOf); a roll extends it

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
	// holds nothing stale. Every insert into entries counts in
	// (insertLocked) and every removal counts out (evictLocked). Guarded by mu.
	epochs map[string]map[epoch]int

	// quarantined marks keys whose entries failed fingerprint verification;
	// they are never re-admitted (whatever produced the corruption — a stray
	// write through a shared slice, a buggy operator — would poison the same
	// bytes again). Guarded by mu.
	quarantined map[Key]bool

	dmu    sync.Mutex
	demand map[Key]int64 // requests seen for not-yet-cached keys

	clock atomic.Uint64

	hits, ancHits, misses    atomic.Int64
	admissions, rejections   atomic.Int64
	evictions, invalidations atomic.Int64
	refreshes                atomic.Int64
	corruptions              atomic.Int64

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
// The entry's fingerprint is verified before it is served: a mismatch evicts
// and quarantines the key, bumps Stats.Corruptions, and reports a miss — a
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
	if fingerprint(e.tbl) != e.fp {
		c.quarantine(key, e)
		return nil, false
	}
	e.uses.Add(1)
	e.lastUsed.Store(c.clock.Add(1))
	c.hits.Add(1)
	return e.tbl, true
}

// quarantine handles a fingerprint mismatch detected on key's entry: evict it,
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

// fingerprint is the hash a hit is verified against: the column names, the
// row-major scan image and the measure columns' values. It is a sum of
// independent terms — one per 64-bit word of the image and one per measure
// value, each a bijection of its word for a fixed position (see wordTerm) —
// sealed with the names and lengths (see sealPrint). Changing any one word —
// a flipped byte, an altered aggregate — changes its term and so the sum, and
// a renamed column changes the seal; lengths are sealed in, so the
// zero-padded last word of an image (or name) whose length is not a multiple
// of 8 cannot alias a longer one. Because the terms add, a roll that shares
// its parent's rows updates the parent's sum for the touched and new rows
// alone (see extendPrint); because they are independent, a hit pays one
// multiply per eight image bytes with no dependency chain between words.
func fingerprint(t *table.Table) uint64 {
	fp, _ := printOf(t)
	return fp
}

// printOf returns t's fingerprint and the sum of terms it seals.
func printOf(t *table.Table) (fp, sum uint64) {
	img, _ := t.RowImage()
	sum = imageSum(img, 0)
	for i := 0; i < t.NumCols(); i++ {
		if c := t.Col(i); c.Measure() {
			sum += measureSum(i, c, 0)
		}
	}
	return sealPrint(t, len(img), sum), sum
}

// sealPrint folds t's shape — column names, image length and measure value
// counts — over the sum of terms.
func sealPrint(t *table.Table, imgLen int, sum uint64) uint64 {
	h := uint64(t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		h = foldBytes(h, t.Col(i).Name())
	}
	h = mixWord(h, uint64(imgLen))
	for i := 0; i < t.NumCols(); i++ {
		if c := t.Col(i); c.Measure() {
			ints, floats := c.NumericDict()
			h = mixWord(h, uint64(len(ints)+len(floats)))
		}
	}
	return mixWord(h, sum)
}

// posKey spreads a word's position over 64 bits before it is xored in.
const posKey uint64 = 0x9e3779b97f4a7c15

// wordTerm is the fingerprint term of word w at position pos: an xor with
// the position's key, a multiply by an odd constant and an xorshift, each a
// bijection of w.
func wordTerm(pos, w uint64) uint64 { return mixTerm(w ^ pos*posKey) }

func mixTerm(x uint64) uint64 {
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>31
}

// imageSum sums the terms of img's 8-byte words from word from on, the last
// one zero-padded; a word's position is its byte offset.
func imageSum(img []byte, from int) (s uint64) {
	k := posKey
	i, key, step := 8*from, uint64(8*from)*k, 8*k // wrapping, as in wordTerm
	for ; i+8 <= len(img); i, key = i+8, key+step {
		s += mixTerm(binary.LittleEndian.Uint64(img[i:]) ^ key)
	}
	if i < len(img) {
		s += wordTerm(uint64(i), imageWord(img, i))
	}
	return s
}

// imageWord is img's word at byte offset i, zero-padded past its end.
func imageWord(img []byte, i int) uint64 {
	if i+8 <= len(img) {
		return binary.LittleEndian.Uint64(img[i:])
	}
	var tail [8]byte
	copy(tail[:], img[i:])
	return binary.LittleEndian.Uint64(tail[:])
}

// measureTerm is the term of value bits v in slot k of the measure column at
// ordinal col.
func measureTerm(col, k int, v uint64) uint64 {
	return wordTerm(uint64(col+1)<<48|uint64(k), v)
}

// measureSum sums the terms of the measure column c at ordinal col from
// value slot from on.
func measureSum(col int, c *table.Column, from int) (s uint64) {
	ints, floats := c.NumericDict()
	for k := from; k < len(ints); k++ {
		s += measureTerm(col, k, uint64(ints[k]))
	}
	for k := from; k < len(floats); k++ {
		s += measureTerm(col, k, math.Float64bits(floats[k]))
	}
	return s
}

// measureBits is the bits of slot k of the measure column c.
func measureBits(c *table.Column, k int) uint64 {
	ints, floats := c.NumericDict()
	if ints != nil {
		return uint64(ints[k])
	}
	return math.Float64bits(floats[k])
}

// extendPrint derives t's fingerprint and sum of terms from base, the sum of
// parent, when t is parent's extension (see table.Table.Extend): the terms of
// the image words the touched rows cover and of their measure values are
// swapped for t's, and the terms of everything past parent's rows — from
// parent's partially filled last image word on — are added. It reports false
// when t is not such an extension of parent, or when a measure column is not
// in row order (a value slot is then not a row), and the caller prints t
// whole.
func extendPrint(base uint64, parent, t *table.Table) (fp, sum uint64, ok bool) {
	prefix, touched := t.Extended()
	if prefix == 0 || prefix != parent.NumRows() || t.NumCols() != parent.NumCols() {
		return 0, 0, false
	}
	for i := 0; i < t.NumCols(); i++ {
		pc, c := parent.Col(i), t.Col(i)
		if pc.Measure() != c.Measure() || pc.Measure() && (!pc.InRowOrder() || !c.InRowOrder()) {
			return 0, 0, false
		}
	}
	pimg, stride := parent.RowImage()
	img, _ := t.RowImage()
	whole := len(pimg) / 8 // parent's image words no new row reaches
	s, done := base, -1    // done: the last word already swapped
	// An image that still shares parent's backing holds parent's bytes
	// there: only a copied one can differ in the touched rows.
	shared := len(pimg) > 0 && len(img) > 0 && &pimg[0] == &img[0]
	for i, r := range touched {
		if i > 0 && r <= touched[i-1] {
			return 0, 0, false
		}
		for w := max(int(r)*stride/8, done+1); !shared && w <= (int(r+1)*stride-1)/8 && w < whole; w++ {
			s += wordTerm(uint64(8*w), imageWord(img, 8*w)) - wordTerm(uint64(8*w), imageWord(pimg, 8*w))
			done = w
		}
	}
	s += imageSum(img, whole) - imageSum(pimg, whole)
	for i := 0; i < t.NumCols(); i++ {
		pc, c := parent.Col(i), t.Col(i)
		if !c.Measure() {
			continue
		}
		for _, r := range touched {
			s += measureTerm(i, int(r), measureBits(c, int(r))) - measureTerm(i, int(r), measureBits(pc, int(r)))
		}
		s += measureSum(i, c, prefix)
	}
	return sealPrint(t, len(img), s), s, true
}

// foldBytes mixes b into h eight bytes at a time, then its zero-padded tail
// and its length.
func foldBytes[B string | []byte](h uint64, b B) uint64 {
	n := len(b)
	i := 0
	for ; i+8 <= n; i += 8 {
		h = mixWord(h, uint64(b[i])|uint64(b[i+1])<<8|uint64(b[i+2])<<16|uint64(b[i+3])<<24|
			uint64(b[i+4])<<32|uint64(b[i+5])<<40|uint64(b[i+6])<<48|uint64(b[i+7])<<56)
	}
	var tail uint64
	for j := n - 1; j >= i; j-- {
		tail = tail<<8 | uint64(b[j])
	}
	return mixWord(mixWord(h, tail), uint64(n))
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
	fp, sum := printOf(t)
	bytes := max(t.MemSize(), 1)

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
	if !c.roomLocked(bytes, score) {
		c.rejections.Add(1)
		return false
	}
	e := &entry{key: key, aggs: append([]exec.Agg(nil), aggs...), tbl: t, bytes: bytes, benefit: benefit, fp: fp, sum: sum}
	e.uses.Store(uses)
	e.lastUsed.Store(c.clock.Add(1))
	c.insertLocked(e)
	c.admissions.Add(1)
	return true
}

// roomLocked makes room for bytes more by evicting strictly lower-scored
// entries than score, reporting false when the budget cannot be met that
// way. Callers hold c.mu and have checked bytes against MaxBytes.
func (c *Cache) roomLocked(bytes int64, score float64) bool {
	for c.bytes+bytes > c.cfg.MaxBytes {
		victim := c.victimLocked()
		if victim == nil || victim.score() >= score {
			return false
		}
		c.evictLocked(victim)
		c.evictions.Add(1)
	}
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

// before orders epochs by (Version, Delta). The order is monotone over a
// table's life: Register and Drop bump Version and reset Delta, an append
// bumps Delta.
func (e epoch) before(o epoch) bool {
	return e.version < o.version || (e.version == o.version && e.delta < o.delta)
}

func epochOf(k Key) epoch { return epoch{k.Version, k.Delta} }

// insertLocked makes e resident. Callers hold c.mu and count the admission.
func (c *Cache) insertLocked(e *entry) {
	c.entries[e.key] = e
	c.bytes += e.bytes
	eps := c.epochs[e.key.Table]
	if eps == nil {
		eps = make(map[epoch]int)
		c.epochs[e.key.Table] = eps
	}
	eps[epochOf(e.key)]++
}

// evictLocked removes one entry. Callers hold c.mu and count the eviction.
func (c *Cache) evictLocked(e *entry) {
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	eps := c.epochs[e.key.Table]
	ep := epochOf(e.key)
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

// InvalidateBelow sweeps every entry of the table at an epoch strictly older
// than (version, delta) — a mutated base relation invalidates all dependent
// results — and returns the number of entries removed. Entries at the
// caller's epoch or a newer one stay: a reader still holding the epoch an
// append is leaving must not evict what that append published.
//
// Every cache-served request calls it, and almost always nothing is stale:
// that case reads the epoch counts under the read lock and returns, and only
// a table holding an older epoch's entries pays the write lock and the walk.
func (c *Cache) InvalidateBelow(tableName string, version, delta uint64) int {
	if c == nil {
		return 0
	}
	now := epoch{version, delta}
	c.mu.RLock()
	stale := false
	for ep := range c.epochs[tableName] {
		if ep.before(now) {
			stale = true
			break
		}
	}
	c.mu.RUnlock()
	if !stale {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if k.Table == tableName && epochOf(k).before(now) {
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
	sum   uint64 // the entry's print sum (see Roll)
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
			out = append(out, Resident{Key: k, Set: k.Set, Aggs: e.aggs, Table: e.tbl, sum: e.sum})
		}
	}
	return out
}

// Roll is one resident entry rolled forward across an append, ready for
// Publish: the entry's key at the epoch being left and its merged table over
// the appended snapshot, scan image built and fingerprinted outside the lock.
type Roll struct {
	From  Key
	table *table.Table
	bytes int64
	fp    uint64
	sum   uint64
}

// NewRoll prepares t, the roll-forward of the entry at from, for Publish,
// fingerprinting it whole.
func NewRoll(from Key, t *table.Table) Roll {
	fp, sum := printOf(t)
	return Roll{From: from, table: t, bytes: max(t.MemSize(), 1), fp: fp, sum: sum}
}

// Roll prepares t, the roll-forward of r, for Publish. When t is r's table
// extended (see table.Table.Extend), its fingerprint is r's updated for the
// touched and new rows only; otherwise t is fingerprinted whole.
func (r Resident) Roll(t *table.Table) Roll {
	fp, sum, ok := extendPrint(r.sum, r.Table, t)
	if !ok {
		return NewRoll(r.Key, t)
	}
	return Roll{From: r.Key, table: t, bytes: max(t.MemSize(), 1), fp: fp, sum: sum}
}

// Published counts what one Publish did to a table's entries.
type Published struct {
	// Refreshed counts rolls installed at the new epoch.
	Refreshed int
	// Dropped counts removed entries the caller named as drops.
	Dropped int
	// Invalidated counts every other removed entry: older-epoch entries no
	// roll replaced, and rolls that could not be installed.
	Invalidated int
}

// Publish moves a table to its next epoch with its maintained entries in
// place, all in one critical section of the write lock. swap runs first —
// the catalog's epoch swap — and returns the new epoch; if it fails, Publish
// returns its error and changes nothing. Then every entry of the table at an
// older epoch is removed, and each roll whose source entry was among them is
// installed at the new epoch with the source's benefit, usage weight and
// recency: the entry is the same result advanced one append. A roll is not
// installed when its new key is quarantined or already resident, or when
// the budget cannot make room without evicting an entry scored at least as
// high.
//
// A reader resolves the table's epoch before it reads the cache, so it
// either holds the old epoch and finds the old entries until the swap, or
// holds the new one and waits on the lock until every roll is installed.
// c.mu is held across swap, which must not call back into the cache: the
// lock order is cache before catalog.
func (c *Cache) Publish(tableName string, swap func() (version, delta uint64, err error), rolls []Roll, drops []Key) (Published, error) {
	if c == nil {
		_, _, err := swap()
		return Published{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	version, delta, err := swap()
	if err != nil {
		return Published{}, err
	}
	now := epoch{version, delta}
	rolled := make(map[Key]*entry, len(rolls))
	for _, r := range rolls {
		rolled[r.From] = nil
	}
	dropped := make(map[Key]bool, len(drops))
	for _, k := range drops {
		dropped[k] = true
	}
	var pub Published
	for k, e := range c.entries {
		if k.Table != tableName || !epochOf(k).before(now) {
			continue
		}
		c.evictLocked(e)
		if _, ok := rolled[k]; ok {
			rolled[k] = e
			continue
		}
		c.invalidations.Add(1)
		if dropped[k] {
			pub.Dropped++
		} else {
			pub.Invalidated++
		}
	}
	for _, r := range rolls {
		src := rolled[r.From]
		if src == nil {
			continue // evicted or quarantined while it was being merged
		}
		key := r.From
		key.Version, key.Delta = version, delta
		score := src.benefit * float64(max(src.uses.Load(), 1)) / float64(r.bytes)
		if c.quarantined[key] || c.entries[key] != nil || r.bytes > c.cfg.MaxBytes || !c.roomLocked(r.bytes, score) {
			c.invalidations.Add(1)
			pub.Invalidated++
			continue
		}
		e := &entry{key: key, aggs: src.aggs, tbl: r.table, bytes: r.bytes, benefit: src.benefit, fp: r.fp, sum: r.sum}
		e.uses.Store(src.uses.Load())
		e.lastUsed.Store(c.clock.Add(1))
		c.insertLocked(e)
		c.refreshes.Add(1)
		pub.Refreshed++
	}
	return pub, nil
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
		FlightLeads:   c.flight.leads.Load(),
		FlightShared:  c.flight.shared.Load(),
		Bytes:         bytes,
		Entries:       entries,
	}
}

// Do collapses concurrent identical computations: the first caller for key
// runs fn, concurrent callers for the same key wait and share the outcome.
// Each caller waits under its own ctx: a follower whose ctx ends first gets
// ctx's error, and a follower whose leader was cancelled leads again.
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, shared bool) {
	return c.flight.do(ctx, key, fn)
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
