package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gbmqo/internal/table"
)

// Mergeable reports whether every aggregate's final output values can be
// combined group-wise with another aggregation of the same shape over disjoint
// rows. COUNT/SUM add, MIN/MAX compare; AVG's output is a ratio whose (sum,
// count) pair is gone by emission time, so it cannot merge and must be
// recomputed (the cache falls back to targeted invalidation for it).
func Mergeable(aggs []Agg) bool {
	for _, a := range aggs {
		if a.Kind == AggAvg {
			return false
		}
	}
	return true
}

// MergeAppendedGroups rolls a materialized Group By result forward over an
// appended delta segment: cached is the result computed over the base rows,
// deltaAgg the same grouping and aggregate list computed over only the
// appended rows (both tables laid out as nKeys key columns followed by
// len(aggs) aggregate columns, the emitGroups shape). Group keys match by
// dictionary code tuple — appends extend dictionaries in place, so a code
// means the same value in both inputs.
//
// The output preserves cached's row order and appends delta-only groups in
// deltaAgg's row order. Because appended rows follow all base rows, that is
// exactly global first-appearance order — the order every group-by kernel
// emits — so the merged table is identical to recomputing the aggregation
// cold over the full appended table (float SUM/AVG aside, where addition
// order can round differently, same caveat as the parallel merge).
//
// The output is cached's extension (see table.Table.Extend), so its cost
// follows the delta, not the entry: its image shares cached's and gains only
// the delta-only groups, unless a matched group's code changes — a delta
// MIN/MAX value beats a cached one, or a SUM stops being NULL — when it is
// copied once and patched; each COUNT/SUM column copies its value slice once
// and patches the matched groups. cached itself reads exactly as before. Key
// and MIN/MAX columns take deltaAgg's dictionaries (the extended ones, which
// cover both inputs' codes); COUNT and SUM columns are measure columns.
func MergeAppendedGroups(cached, deltaAgg *table.Table, nKeys int, aggs []Agg, outName string) (*table.Table, error) {
	if !Mergeable(aggs) {
		return nil, fmt.Errorf("exec: aggregate list is not mergeable")
	}
	if cached.NumCols() != nKeys+len(aggs) || deltaAgg.NumCols() != nKeys+len(aggs) {
		return nil, fmt.Errorf("exec: merge shape mismatch: cached %d cols, delta %d cols, want %d keys + %d aggs",
			cached.NumCols(), deltaAgg.NumCols(), nKeys, len(aggs))
	}
	for i := range aggs {
		if cc, dc := cached.Col(nKeys+i), deltaAgg.Col(nKeys+i); cc.Type() != dc.Type() {
			return nil, fmt.Errorf("exec: merge aggregate %q type mismatch: cached %s, delta %s", cc.Name(), cc.Type(), dc.Type())
		}
	}

	pairs, fresh := matchGroups(cached, deltaAgg, nKeys)
	touched := make([]int32, len(pairs))
	for i, p := range pairs {
		touched[i] = p.cached
	}
	cols := make([]table.Patch, 0, nKeys+len(aggs))
	for k := 0; k < nKeys; k++ {
		dc := deltaAgg.Col(k)
		cols = append(cols, cached.Col(k).Extend(dc, nil, nil, codesAt(dc, fresh)))
	}
	for i, a := range aggs {
		cc, dc := cached.Col(nKeys+i), deltaAgg.Col(nKeys+i)
		var out table.Patch
		switch {
		case a.Kind == AggMin || a.Kind == AggMax:
			var at []int32
			var codes []uint32
			for _, p := range pairs {
				code, cur := dc.Code(int(p.delta)), cc.Code(int(p.cached))
				if code != 0 && (cur == 0 || beats(a.Kind, dc, code, cur)) {
					at, codes = append(at, p.cached), append(codes, code)
				}
			}
			out = cc.Extend(dc, at, codes, codesAt(dc, fresh))
		case cc.Type() == table.TFloat64:
			out = mergeMeasure[float64](cc, dc, pairs, fresh)
		default:
			out = mergeMeasure[int64](cc, dc, pairs, fresh)
		}
		cols = append(cols, out)
	}
	return cached.Extend(outName, cols, touched), nil
}

// codesAt returns c's codes at rows.
func codesAt(c *table.Column, rows []int32) []uint32 {
	out := make([]uint32, len(rows))
	for i, r := range rows {
		out[i] = c.Code(int(r))
	}
	return out
}

// mergeMeasure merges a COUNT or SUM column: cached's values, each matched
// group plus its delta value (a NULL part is skipped, so the sum is NULL only
// when every part was), then the delta-only groups' values.
func mergeMeasure[T int64 | float64](cc, dc *table.Column, pairs []groupPair, fresh []int32) table.Patch {
	dvals := table.NumericRows[T](dc, nil)
	tail, valid := make([]T, len(fresh)), make([]bool, len(fresh))
	for i, dr := range fresh {
		tail[i], valid[i] = dvals[dr], !dc.IsNull(int(dr))
	}
	vals := table.NumericRows(cc, tail)
	var revived []int32
	for _, p := range pairs {
		if dc.IsNull(int(p.delta)) {
			continue
		}
		if cc.IsNull(int(p.cached)) {
			revived = append(revived, p.cached)
		}
		vals[p.cached] += dvals[p.delta]
	}
	return table.ExtendMeasure(cc, vals, revived, valid)
}

// groupPair is one group present in both merge inputs: its row in the cached
// result and in the delta's.
type groupPair struct{ cached, delta int32 }

// matchGroups pairs the groups of cached and delta by their key code tuple
// (the first nKeys columns): pairs lists the groups in both, ascending by
// cached row, and fresh the delta rows whose group cached lacks, in delta
// order. It reads every cached key once but indexes only the delta's groups:
// a tuple packs into one uint64 when its columns' code widths sum to at most
// 64 bits, probed in an open-addressed table small enough to stay in L1, and
// is keyed as the byte string of its codes otherwise.
func matchGroups(cached, delta *table.Table, nKeys int) (pairs []groupPair, fresh []int32) {
	keyCols := make([]int, nKeys)
	widths := make([]uint, nKeys)
	var width uint
	for k := range keyCols {
		keyCols[k] = k
		widths[k] = uint(bits.Len32(uint32(max(cached.Col(k).DictSize(), delta.Col(k).DictSize()))))
		width += widths[k]
	}
	cCodes, dCodes := keyReader(cached, keyCols), keyReader(delta, keyCols)
	matched := false
	if width <= 64 {
		pairs, matched = matchPacked(cCodes, dCodes, widths, cached.NumRows(), delta.NumRows())
	}
	if !matched {
		pairs = matchWide(cCodes, dCodes, cached.NumRows(), delta.NumRows())
	}
	seen := make([]bool, delta.NumRows())
	for _, p := range pairs {
		seen[p.delta] = true
	}
	for dr, ok := range seen {
		if !ok {
			fresh = append(fresh, int32(dr))
		}
	}
	return pairs, fresh
}

// matchBlock is how many cached keys matchPacked packs at a time.
const matchBlock = 256

// matchPacked matches through packed uint64 keys, cached rows a block at a
// time, a column at a time. It reports false when some code is wider than
// its column's slot (the OR of a column's codes then exceeds the slot's
// mask), and the caller keys by bytes instead.
func matchPacked(cCodes, dCodes rowReader, widths []uint, cRows, dRows int) ([]groupPair, bool) {
	// pack folds the codes of rows [lo, lo+len(keys)) into keys with the
	// scan kernels' key decode, each column in its slot of the packed key,
	// reporting whether every code fit its slot.
	mults, limits := make([]uint64, len(widths)), make([]uint32, len(widths))
	var shift uint
	for k, w := range widths {
		mults[k], limits[k] = uint64(1)<<shift, uint32(1<<w-1)
		shift += w
	}
	pack := func(rd rowReader, lo int, keys []uint64) bool {
		return decodeKeys(keys, rd, lo, mults, limits)
	}
	// The delta's keys sit in an open-addressed table probed linearly, at
	// most half full: slotRow holds delta row + 1 (0 = empty) and slotKey
	// its key. Most cached keys are not in the delta at all; a 4096-bit
	// filter on the hash's top bits turns nearly all of those away before
	// the table is touched.
	dKeys := make([]uint64, dRows)
	if !pack(dCodes, 0, dKeys) {
		return nil, false
	}
	bitsN := uint(bits.Len(uint(max(2*dRows, 8) - 1)))
	mask := uint64(1)<<bitsN - 1
	slotRow, slotKey := make([]int32, mask+1), make([]uint64, mask+1)
	var filter [64]uint64
	for dr, key := range dKeys {
		h := key * 0x9e3779b97f4a7c15
		filter[h>>58] |= 1 << (h >> 52 & 63)
		s := h >> (64 - bitsN)
		for slotRow[s] != 0 {
			s = (s + 1) & mask
		}
		slotRow[s], slotKey[s] = int32(dr+1), key
	}
	pairs := make([]groupPair, 0, dRows)
	var block [matchBlock]uint64
	for lo := 0; lo < cRows; lo += matchBlock {
		keys := block[:min(matchBlock, cRows-lo)]
		if !pack(cCodes, lo, keys) {
			return nil, false
		}
		for i, key := range keys {
			h := key * 0x9e3779b97f4a7c15
			if filter[h>>58]&(1<<(h>>52&63)) == 0 {
				continue
			}
			for s := h >> (64 - bitsN); slotRow[s] != 0; s = (s + 1) & mask {
				if slotKey[s] == key {
					pairs = append(pairs, groupPair{cached: int32(lo + i), delta: slotRow[s] - 1})
					break
				}
			}
		}
	}
	return pairs, true
}

// matchWide matches keying each tuple by the byte string of its codes.
func matchWide(cCodes, dCodes rowReader, cRows, dRows int) []groupPair {
	var buf []byte
	key := func(rd rowReader, row int) []byte {
		buf = buf[:0]
		for k := range rd.offs {
			buf = binary.LittleEndian.AppendUint32(buf, rd.code(row, k))
		}
		return buf
	}
	idx := make(map[string]int32, dRows)
	for dr := 0; dr < dRows; dr++ {
		idx[string(key(dCodes, dr))] = int32(dr)
	}
	var pairs []groupPair
	for r := 0; r < cRows; r++ {
		if dr, ok := idx[string(key(cCodes, r))]; ok {
			pairs = append(pairs, groupPair{cached: int32(r), delta: dr})
		}
	}
	return pairs
}

// AggMerger combines the final values of one aggregate column group-wise
// across results over disjoint rows — the shard gather folds through it.
// COUNT and SUM add (a NULL SUM is skipped, so the merge is NULL only when
// every part was); MIN and MAX keep the better code, compared by value.
// MIN/MAX codes must belong to the template column's dictionary lineage, and
// the template's dictionary must cover all of them.
type AggMerger struct {
	kind  AggKind
	proto *table.Column // output type; MIN/MAX codes live in its dictionary
	float bool          // SUM over floats
	n     int           // groups so far

	ints   []int64   // COUNT/SUM over integers
	floats []float64 // SUM over floats
	valid  []bool    // COUNT/SUM: some part was non-NULL
	codes  []uint32  // MIN/MAX

	// The numeric values of the last COUNT/SUM source column read, so a run
	// of rows from one column reads Column.NumericDict once.
	src       *table.Column
	srcInts   []int64
	srcFloats []float64
}

// NewAggMerger starts an empty merge of kind's final values; proto is a
// column of the shape being merged, and groups bounds how many groups it
// will hold (its state is allocated once at that size). It panics on AVG,
// whose final value is not mergeable (see Mergeable).
func NewAggMerger(kind AggKind, proto *table.Column, groups int) *AggMerger {
	switch kind {
	case AggCountStar, AggCount, AggSum, AggMin, AggMax:
	default:
		panic(fmt.Sprintf("exec: no group-wise merge for aggregate kind %v", kind))
	}
	m := &AggMerger{kind: kind, proto: proto, float: proto.Type() == table.TFloat64}
	switch {
	case m.extreme():
		m.codes = make([]uint32, 0, groups)
	case m.float:
		m.floats, m.valid = make([]float64, 0, groups), make([]bool, 0, groups)
	default:
		m.ints, m.valid = make([]int64, 0, groups), make([]bool, 0, groups)
	}
	return m
}

func (m *AggMerger) extreme() bool { return m.kind == AggMin || m.kind == AggMax }

// Add opens a new group holding col's value at row and returns its index.
func (m *AggMerger) Add(col *table.Column, row int) int {
	g := m.n
	m.n++
	switch {
	case m.extreme():
		m.codes = append(m.codes, 0)
	case m.float:
		m.floats = append(m.floats, 0)
		m.valid = append(m.valid, false)
	default:
		m.ints = append(m.ints, 0)
		m.valid = append(m.valid, false)
	}
	m.Merge(g, col, row)
	return g
}

// Merge folds col's value at row into group g. COUNT/SUM values are read by
// code from the column's numeric dictionary (code k is element k-1, NULL is
// code 0), as emission writes them.
func (m *AggMerger) Merge(g int, col *table.Column, row int) {
	code := col.Code(row)
	if code == 0 {
		return
	}
	if m.extreme() {
		if cur := m.codes[g]; cur == 0 || beats(m.kind, m.proto, code, cur) {
			m.codes[g] = code
		}
		return
	}
	if col != m.src {
		m.src = col
		m.srcInts, m.srcFloats = col.NumericDict()
	}
	m.valid[g] = true
	if m.float {
		m.floats[g] += m.srcFloats[code-1]
	} else {
		m.ints[g] += m.srcInts[code-1]
	}
}

// beats reports whether code's value beats cur's under MIN (kind AggMin) or
// MAX, both decoded by col's dictionary.
func beats(kind AggKind, col *table.Column, code, cur uint32) bool {
	c := col.Decode(code).Compare(col.Decode(cur))
	if kind == AggMin {
		return c < 0
	}
	return c > 0
}

// Column declares the merged column named name in b, whose rows are the
// merger's groups, and writes it: row k holds group k, or group order[k]
// when order is non-nil. COUNT and SUM become measure columns, MIN/MAX codes
// are emitted under the template's dictionary. The merger must not be used
// afterwards.
func (m *AggMerger) Column(b *table.Builder, name string, order []int) {
	switch {
	case m.extreme():
		c := b.Like(m.proto, name)
		for k, code := range permute(m.codes, m.n, order) {
			b.Set(k, c, code)
		}
	case m.float:
		table.AddMeasure(b, name, permute(m.floats, m.n, order), permute(m.valid, m.n, order))
	default:
		table.AddMeasure(b, name, permute(m.ints, m.n, order), permute(m.valid, m.n, order))
	}
}
