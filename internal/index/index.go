// Package index implements the physical-design substrate for §6.9: clustered
// and non-clustered indexes over base tables. An index on key columns (k1, …,
// km) stores the permutation of row ids sorted by (k1, …, km) plus the group
// boundaries of the full key. The engine exploits an index in two ways, both
// mirrored by the cost model:
//
//   - exact match: a Group By on exactly {k1..km} reads counts straight off
//     the group boundaries — O(#groups) instead of a hash aggregate;
//   - prefix match: a Group By on {k1..kj}, j < m, streams the permutation and
//     aggregates on boundary changes — sequential, no hash table.
package index

import (
	"fmt"
	"sort"

	"gbmqo/internal/colset"
	"gbmqo/internal/table"
)

// Index is a (non-)clustered index over a base table.
type Index struct {
	name      string
	tableName string
	cols      []int // key column ordinals, significance order
	clustered bool

	perm   []int32 // row ids sorted by key
	bounds []int32 // starts of full-key groups; bounds[len-1] == len(perm)
}

// Build sorts the index. cols is the key column order; clustered marks the
// index as the table's clustered (physical) order, which the cost model
// charges less for because it involves no separate structure.
func Build(t *table.Table, name string, cols []int, clustered bool) *Index {
	if len(cols) == 0 {
		panic(fmt.Sprintf("index %q: empty key", name))
	}
	n := t.NumRows()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	ranks := make([][]uint32, len(cols))
	codes := make([]table.CodeView, len(cols))
	for i, c := range cols {
		col := t.Col(c)
		ranks[i] = col.Ranks()
		codes[i] = col.View()
	}
	sort.Slice(perm, func(a, b int) bool {
		ra, rb := int(perm[a]), int(perm[b])
		for i := range cols {
			ka, kb := ranks[i][codes[i].At(ra)], ranks[i][codes[i].At(rb)]
			if ka != kb {
				return ka < kb
			}
		}
		return ra < rb // stable tie-break for determinism
	})
	// Full-key group boundaries (an empty table has zero groups).
	bounds := []int32{0}
	if n > 0 {
		for i := 1; i < n; i++ {
			for j := range cols {
				if codes[j].At(int(perm[i])) != codes[j].At(int(perm[i-1])) {
					bounds = append(bounds, int32(i))
					break
				}
			}
		}
		bounds = append(bounds, int32(n))
	}
	return &Index{
		name:      name,
		tableName: t.Name(),
		cols:      append([]int(nil), cols...),
		clustered: clustered,
		perm:      perm,
		bounds:    bounds,
	}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// TableName returns the indexed table's name.
func (ix *Index) TableName() string { return ix.tableName }

// Cols returns the key column ordinals in significance order.
func (ix *Index) Cols() []int { return append([]int(nil), ix.cols...) }

// KeySet returns the key columns as a set.
func (ix *Index) KeySet() colset.Set { return colset.Of(ix.cols...) }

// Clustered reports whether this is the table's clustered order.
func (ix *Index) Clustered() bool { return ix.clustered }

// Perm returns the sorted row-id permutation. Callers must not mutate it.
func (ix *Index) Perm() []int32 { return ix.perm }

// Bounds returns the full-key group starts (last element = row count).
// Callers must not mutate it.
func (ix *Index) Bounds() []int32 { return ix.bounds }

// NumGroups returns the number of distinct full-key groups.
func (ix *Index) NumGroups() int { return len(ix.bounds) - 1 }

// PrefixLen returns k > 0 if set equals exactly the first k key columns of
// the index, and 0 otherwise. A non-zero result means a Group By on set can
// stream this index in order; k == len(cols) additionally means group counts
// come straight from the boundaries.
func (ix *Index) PrefixLen(set colset.Set) int {
	var prefix colset.Set
	for k, c := range ix.cols {
		prefix = prefix.Add(c)
		if prefix == set {
			return k + 1
		}
		if set.Len() <= prefix.Len() {
			break
		}
	}
	return 0
}

// ExactMatch reports whether set is exactly the full index key.
func (ix *Index) ExactMatch(set colset.Set) bool { return ix.PrefixLen(set) == len(ix.cols) }

// String summarizes the index.
func (ix *Index) String() string {
	kind := "nonclustered"
	if ix.clustered {
		kind = "clustered"
	}
	return fmt.Sprintf("%s %s on %s cols=%v groups=%d", kind, ix.name, ix.tableName, ix.cols, ix.NumGroups())
}

// BestFor picks, among the given indexes, the one most useful for a Group By
// on set: an exact match beats a prefix match; among prefix matches the
// longest prefix wins; clustered breaks ties. Returns nil when none applies.
func BestFor(indexes []*Index, set colset.Set) *Index {
	var best *Index
	bestLen, bestExact := 0, false
	for _, ix := range indexes {
		k := ix.PrefixLen(set)
		if k == 0 {
			continue
		}
		exact := k == len(ix.cols)
		better := false
		switch {
		case exact && !bestExact:
			better = true
		case exact == bestExact && k > bestLen:
			better = true
		case exact == bestExact && k == bestLen && best != nil && ix.clustered && !best.clustered:
			better = true
		}
		if best == nil || better {
			best, bestLen, bestExact = ix, k, exact
		}
	}
	return best
}
