package table

import (
	"sort"
	"sync"
)

// nullCode is the dictionary code reserved for NULL in every column.
const nullCode uint32 = 0

// dict maps distinct column values to dense uint32 codes starting at 1
// (code 0 is reserved for NULL). Every column in the engine is
// dictionary-encoded at build time; grouping then operates on code tuples
// only, which makes the group-by operators type-agnostic and fast. A dict is
// shared (not copied) when rows are gathered into a derived table.
type dict struct {
	typ Type

	// measure marks an identity dictionary (see MeasureColumn): the value
	// slice is the column's data in row order, equal values do not share a
	// code, and there is no lookup map, so nothing may be interned.
	measure bool
	// root is the first dictionary of this one's extension lineage (itself
	// when it was not built by extend): codes mean the same value under every
	// dictionary sharing a root.
	root *dict

	ints    []int64   // value per code-1, TInt64/TDate
	floats  []float64 // TFloat64
	strs    []string  // TString
	lookupI map[int64]uint32
	lookupF map[float64]uint32
	lookupS map[string]uint32

	strBytes int64 // total bytes across strs, for average-width accounting

	rankOnce sync.Once
	rank     []uint32 // rank[code] = position of code in value order; NULL first
}

func newDict(t Type) *dict {
	d := &dict{typ: t}
	switch t {
	case TInt64, TDate:
		d.lookupI = make(map[int64]uint32)
	case TFloat64:
		d.lookupF = make(map[float64]uint32)
	case TString:
		d.lookupS = make(map[string]uint32)
	}
	d.root = d
	return d
}

// size returns the number of non-null codes in the dictionary.
func (d *dict) size() int {
	switch d.typ {
	case TInt64, TDate:
		return len(d.ints)
	case TFloat64:
		return len(d.floats)
	default:
		return len(d.strs)
	}
}

// code interns a value and returns its code. NULLs map to nullCode.
func (d *dict) code(v Value) uint32 {
	if v.Null {
		return nullCode
	}
	switch d.typ {
	case TInt64, TDate:
		if c, ok := d.lookupI[v.I]; ok {
			return c
		}
		d.ints = append(d.ints, v.I)
		c := uint32(len(d.ints))
		d.lookupI[v.I] = c
		return c
	case TFloat64:
		if c, ok := d.lookupF[v.F]; ok {
			return c
		}
		d.floats = append(d.floats, v.F)
		c := uint32(len(d.floats))
		d.lookupF[v.F] = c
		return c
	default:
		if c, ok := d.lookupS[v.S]; ok {
			return c
		}
		d.strs = append(d.strs, v.S)
		d.strBytes += int64(len(v.S))
		c := uint32(len(d.strs))
		d.lookupS[v.S] = c
		return c
	}
}

// extend returns a copy-on-write extension of this dictionary for an append
// snapshot. Value slices and lookup maps are shared with the parent — codes
// assigned so far keep their meaning, and appending new values through the
// extension grows the shared backing past the parent's slice lengths, which
// parent readers never index. The rank table is NOT shared: it was computed
// over the parent's code range, so the extension recomputes it lazily over
// the grown range (MIN/MAX correctness over appended values).
//
// The sharing contract: only the NEWEST snapshot of a lineage may intern new
// values (the catalog's append path serializes appends per table and always
// extends the current snapshot), and readers of older snapshots never touch
// the lookup maps. Violating either corrupts the shared state.
func (d *dict) extend() *dict {
	return &dict{
		typ:      d.typ,
		measure:  d.measure,
		root:     d.root,
		ints:     d.ints,
		floats:   d.floats,
		strs:     d.strs,
		lookupI:  d.lookupI,
		lookupF:  d.lookupF,
		lookupS:  d.lookupS,
		strBytes: d.strBytes,
	}
}

// value decodes a code back to a Value.
func (d *dict) value(code uint32) Value {
	if code == nullCode {
		return Null(d.typ)
	}
	switch d.typ {
	case TInt64:
		return Int(d.ints[code-1])
	case TDate:
		return Date(d.ints[code-1])
	case TFloat64:
		return Float(d.floats[code-1])
	default:
		return Str(d.strs[code-1])
	}
}

// ranks returns the code→rank table ordering codes by value with NULL first.
// It is computed once, lazily, and is safe for concurrent readers. The table
// is only valid for the codes present when it was first requested; the engine
// never appends to a column after it starts sorting it.
func (d *dict) ranks() []uint32 {
	d.rankOnce.Do(func() {
		n := d.size()
		order := make([]uint32, n) // order[i] = code at sorted position i (codes 1..n)
		for i := range order {
			order[i] = uint32(i + 1)
		}
		switch d.typ {
		case TInt64, TDate:
			sort.Slice(order, func(a, b int) bool { return d.ints[order[a]-1] < d.ints[order[b]-1] })
		case TFloat64:
			sort.Slice(order, func(a, b int) bool { return d.floats[order[a]-1] < d.floats[order[b]-1] })
		default:
			sort.Slice(order, func(a, b int) bool { return d.strs[order[a]-1] < d.strs[order[b]-1] })
		}
		rank := make([]uint32, n+1)
		rank[nullCode] = 0 // NULL sorts first
		for pos, code := range order {
			rank[code] = uint32(pos + 1)
		}
		d.rank = rank
	})
	return d.rank
}

// avgWidth returns the average storage width in bytes of a value of this
// dictionary's type. For strings it is the mean length over distinct values
// (a reasonable proxy for on-disk width that is stable under gathers).
func (d *dict) avgWidth() float64 {
	if w := d.typ.fixedWidth(); w != 0 {
		return w
	}
	if len(d.strs) == 0 {
		return 1
	}
	return float64(d.strBytes) / float64(len(d.strs))
}
