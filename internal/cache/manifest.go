package cache

import (
	"fmt"
	"sort"

	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// This file is the cache's durability surface: a manifest describing the hot
// resident entries (keys, admission-time checksums, and eviction standing) so
// a restarted process can rewarm the lattice cache and then *verify* each
// recomputed result against the checksum the pre-crash process stored. A
// mismatch means the recovered base state diverged — the rewarm path routes it
// into the same quarantine the live corruption detector uses.

// ChecksumTable fingerprints a result table exactly as the cache does at
// admission: FNV-64a over the column names (NUL-separated), the row-major
// scan image and the measure columns' values. Exported so snapshot verification and manifest rewarm compare
// against the same fingerprint the live cache enforces.
func ChecksumTable(t *table.Table) uint64 {
	return checksumTable(t)
}

// ManifestEntry describes one resident entry for persistence: everything
// needed to recompute it after restart (key + aggregate list) plus the
// checksum it must reproduce and the eviction standing it had earned.
type ManifestEntry struct {
	Table   string     `json:"table"`
	Version uint64     `json:"version"`
	Delta   uint64     `json:"delta"`
	Set     uint64     `json:"set"`
	AggSig  string     `json:"agg_sig"`
	Aggs    []exec.Agg `json:"aggs"`
	// Sum is the entry's checksum rendered as 16 hex digits (uint64 exceeds
	// JSON number precision).
	Sum     string  `json:"sum"`
	Benefit float64 `json:"benefit"`
	Uses    int64   `json:"uses"`
}

// Manifest lists the resident entries, most valuable first by eviction score,
// for persistence alongside a snapshot.
func (c *Cache) Manifest() []ManifestEntry {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ManifestEntry, 0, len(c.entries))
	for k, e := range c.entries {
		out = append(out, ManifestEntry{
			Table:   k.Table,
			Version: k.Version,
			Delta:   k.Delta,
			Set:     uint64(k.Set),
			AggSig:  k.AggSig,
			Aggs:    append([]exec.Agg(nil), e.aggs...),
			Sum:     fmt.Sprintf("%016x", e.sum),
			Benefit: e.benefit,
			Uses:    e.uses.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		si := out[i].Benefit * float64(maxi64(out[i].Uses, 1))
		sj := out[j].Benefit * float64(maxi64(out[j].Uses, 1))
		return si > sj
	})
	return out
}

// Key reconstructs the cache key a manifest entry describes.
func (m ManifestEntry) CacheKey() Key {
	return Key{Table: m.Table, Version: m.Version, Delta: m.Delta,
		Set: colset.Set(m.Set), AggSig: m.AggSig}
}

// SumOf returns the stored admission-time checksum of a resident entry.
func (c *Cache) SumOf(key Key) (uint64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[key]
	if !ok {
		return 0, false
	}
	return e.sum, true
}

// ForceQuarantine evicts key (if resident) and permanently bars it from
// re-admission, counting a corruption. The rewarm path uses it when a
// recomputed entry's checksum contradicts the manifest: the result cannot be
// trusted, so it takes the same one-way door a live checksum mismatch does.
// Returns whether the key was resident when quarantined.
func (c *Cache) ForceQuarantine(key Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, resident := c.entries[key]
	if resident {
		c.evictLocked(e)
	}
	c.quarantined[key] = true
	c.corruptions.Add(1)
	return resident
}

// Seed grants a not-yet-cached key advance demand weight, so a rewarm-time
// Offer admits it with the standing it had earned before the restart instead
// of starting from one observed use.
func (c *Cache) Seed(key Key, uses int64) {
	if c == nil || uses <= 0 {
		return
	}
	c.dmu.Lock()
	if len(c.demand) < demandCap {
		c.demand[key] += uses
	}
	c.dmu.Unlock()
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
