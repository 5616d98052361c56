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
// Key columns and MIN/MAX columns of the output share deltaAgg's dictionaries
// (the extended ones, which cover both inputs' codes); COUNT and SUM columns
// are measure columns (see AggMerger).
func MergeAppendedGroups(cached, deltaAgg *table.Table, nKeys int, aggs []Agg, outName string) (*table.Table, error) {
	if !Mergeable(aggs) {
		return nil, fmt.Errorf("exec: aggregate list is not mergeable")
	}
	if cached.NumCols() != nKeys+len(aggs) || deltaAgg.NumCols() != nKeys+len(aggs) {
		return nil, fmt.Errorf("exec: merge shape mismatch: cached %d cols, delta %d cols, want %d keys + %d aggs",
			cached.NumCols(), deltaAgg.NumCols(), nKeys, len(aggs))
	}

	match, consumed := matchGroups(cached, deltaAgg, nKeys)
	cRows, dRows := cached.NumRows(), deltaAgg.NumRows()

	// Key columns share the delta's (extended) dictionaries.
	cols := make([]*table.Column, 0, nKeys+len(aggs))
	for k := 0; k < nKeys; k++ {
		src := deltaAgg.Col(k)
		out := src.EmptyLike(src.Name())
		out.AppendCodes(cached.Col(k).Codes())
		cols = append(cols, out)
	}
	mergers := make([]*AggMerger, len(aggs))
	for i, a := range aggs {
		cc, dc := cached.Col(nKeys+i), deltaAgg.Col(nKeys+i)
		if cc.Type() != dc.Type() {
			return nil, fmt.Errorf("exec: merge aggregate %q type mismatch: cached %s, delta %s", cc.Name(), cc.Type(), dc.Type())
		}
		mergers[i] = NewAggMerger(a.Kind, dc, cRows+dRows)
	}

	// Aggregates fold a column at a time, so each merger reads one source
	// column per loop: cached rows in order (group r is cached row r), then
	// their delta counterparts, then delta-only groups in delta order (=
	// first-appearance order).
	for i, m := range mergers {
		cc, dc := cached.Col(nKeys+i), deltaAgg.Col(nKeys+i)
		for r := 0; r < cRows; r++ {
			m.Add(cc, r)
		}
		for r, dr := range match {
			if dr >= 0 {
				m.Merge(r, dc, dr)
			}
		}
		for dr := 0; dr < dRows; dr++ {
			if !consumed[dr] {
				m.Add(dc, dr)
			}
		}
	}
	for dr := 0; dr < dRows; dr++ {
		if !consumed[dr] {
			for k := 0; k < nKeys; k++ {
				cols[k].AppendCode(deltaAgg.Col(k).Code(dr))
			}
		}
	}
	for i, m := range mergers {
		cols = append(cols, m.Column(cached.Col(nKeys+i).Name(), nil))
	}
	return table.FromColumns(outName, cols), nil
}

// matchGroups pairs the groups of cached and delta by their key code tuple
// (the first nKeys columns): match[r] is the delta row holding cached row r's
// group, or -1, and consumed marks the delta rows so paired. A tuple is keyed
// as one packed uint64 when its columns' code widths sum to at most 64 bits,
// and as the byte string of its codes otherwise.
func matchGroups(cached, delta *table.Table, nKeys int) (match []int, consumed []bool) {
	cCodes, dCodes := make([][]uint32, nKeys), make([][]uint32, nKeys)
	shifts, limits := make([]uint, nKeys), make([]uint32, nKeys)
	var width uint
	for k := 0; k < nKeys; k++ {
		cCodes[k], dCodes[k] = cached.Col(k).Codes(), delta.Col(k).Codes()
		w := uint(bits.Len32(uint32(max(cached.Col(k).DictSize(), delta.Col(k).DictSize()))))
		shifts[k], limits[k] = width, uint32(1)<<w-1
		width += w
	}
	match = make([]int, cached.NumRows())
	consumed = make([]bool, delta.NumRows())
	pair := func(r, dr int, hit bool) {
		match[r] = -1
		if hit {
			match[r], consumed[dr] = dr, true
		}
	}
	if width <= 64 {
		fits := true
		pack := func(codes [][]uint32, row int) (key uint64) {
			for k, c := range codes {
				fits = fits && c[row] <= limits[k]
				key |= uint64(c[row]) << shifts[k]
			}
			return key
		}
		idx := make(map[uint64]int, len(consumed))
		for dr := range consumed {
			idx[pack(dCodes, dr)] = dr
		}
		for r := range match {
			dr, hit := idx[pack(cCodes, r)]
			pair(r, dr, hit)
		}
		if fits {
			return match, consumed
		}
		clear(consumed) // a code outside its column's width: key by bytes
	}
	var buf []byte
	key := func(codes [][]uint32, row int) []byte {
		buf = buf[:0]
		for _, c := range codes {
			buf = binary.LittleEndian.AppendUint32(buf, c[row])
		}
		return buf
	}
	idx := make(map[string]int, len(consumed))
	for dr := range consumed {
		idx[string(key(dCodes, dr))] = dr
	}
	for r := range match {
		dr, hit := idx[string(key(cCodes, r))]
		pair(r, dr, hit)
	}
	return match, consumed
}

// AggMerger combines the final values of one aggregate column group-wise
// across results over disjoint rows — the append roll-forward and the shard
// gather both fold through it. COUNT and SUM add (a NULL SUM is skipped, so
// the merge is NULL only when every part was); MIN and MAX keep the better
// code, compared by value. MIN/MAX codes must belong to the template column's
// dictionary lineage, and the template's dictionary must cover all of them.
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
		if cur := m.codes[g]; cur == 0 || m.better(code, cur) {
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

// better reports whether code's value beats cur's under MIN or MAX.
func (m *AggMerger) better(code, cur uint32) bool {
	c := m.proto.Decode(code).Compare(m.proto.Decode(cur))
	if m.kind == AggMin {
		return c < 0
	}
	return c > 0
}

// Column builds the merged column named name: row k holds group k, or group
// order[k] when order is non-nil. COUNT and SUM become measure columns,
// MIN/MAX codes are emitted under the template's dictionary. The merger must
// not be used afterwards.
func (m *AggMerger) Column(name string, order []int) *table.Column {
	switch {
	case m.extreme():
		out := m.proto.EmptyLike(name)
		out.AppendCodes(permute(m.codes, m.n, order))
		return out
	case m.float:
		return table.MeasureColumn(name, permute(m.floats, m.n, order), permute(m.valid, m.n, order))
	default:
		return table.MeasureColumn(name, permute(m.ints, m.n, order), permute(m.valid, m.n, order))
	}
}
