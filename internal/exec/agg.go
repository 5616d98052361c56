// Package exec implements the physical operators of the execution substrate:
// hash / sort / index-stream group-by, filter, union-all with Grp-Tags, and
// hash join. Operators are materializing — each consumes and produces whole
// tables — which matches the paper's notion of a logical plan as a partial
// order of SQL statements whose intermediate results land in temp tables.
package exec

import (
	"fmt"
	"strconv"

	"gbmqo/internal/table"
)

// AggKind enumerates the aggregate functions supported (§3.1 uses COUNT(*)
// throughout; §7.2 extends to MIN/MAX/SUM, all implemented here).
type AggKind int

// Aggregate kinds.
const (
	AggCountStar AggKind = iota
	AggCount             // COUNT(col): non-null count
	AggSum
	AggMin
	AggMax
	// AggAvg carries a mergeable (sum, count) pair so the parallel
	// path can combine partial states. It cannot roll up through a
	// materialized intermediate (the average of averages is wrong), so the
	// planner must compute it directly from its source relation; Rollup
	// panics on it.
	AggAvg
)

// String renders the kind as SQL.
func (k AggKind) String() string {
	switch k {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Agg is one aggregate column specification. Col is the source column ordinal
// in the *input* table (ignored for AggCountStar). Name is the output column
// name.
type Agg struct {
	Kind AggKind
	Col  int
	Name string
}

// AppendSig appends the aggregate's canonical signature "kind:col:name" to
// dst. COUNT(*) ignores its source column, so it signs col as -1. The result
// cache keys entries by these bytes and persists them in its manifest, and
// the batcher dedups by them, so the format must not change.
func (a Agg) AppendSig(dst []byte) []byte {
	col := a.Col
	if a.Kind == AggCountStar {
		col = -1
	}
	dst = strconv.AppendInt(dst, int64(a.Kind), 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(col), 10)
	dst = append(dst, ':')
	return append(dst, a.Name...)
}

// CountStar is the default aggregate used by the paper's queries.
func CountStar() Agg { return Agg{Kind: AggCountStar, Name: "cnt"} }

// Rollup translates an aggregate so it can be computed from a materialized
// intermediate instead of the base table (§5.2: "if T_u is an intermediate
// node then we need to replace COUNT(*) with SUM(cnt)"). srcOrd is the ordinal
// in the intermediate table holding this aggregate's partial result.
func (a Agg) Rollup(srcOrd int) Agg {
	out := Agg{Col: srcOrd, Name: a.Name}
	switch a.Kind {
	case AggCountStar, AggCount:
		out.Kind = AggSum
	case AggAvg:
		panic("exec: AVG does not roll up through an intermediate; compute it from the source relation")
	default:
		out.Kind = a.Kind // SUM/MIN/MAX roll up as themselves
	}
	return out
}

// accumulator maintains per-group aggregate state.
type accumulator interface {
	// observe feeds one block of source rows: rows[i] belongs to group
	// gids[i], and groups is the number of groups handed out so far (every
	// gid is below it). State grows once per block to groups entries, so the
	// per-row loop carries no growth check and no interface call.
	observe(gids, rows []int32, groups int)
	// column declares the result column named name in b, whose rows are the
	// first groups groups, and writes it: row k holds group k, or group
	// order[k] when order is non-nil. COUNT, SUM and AVG build measure
	// columns (table.AddMeasure); MIN and MAX emit their best codes under the
	// source column's dictionary, so their codes agree across plans just as
	// key columns' do. With a nil order the state slices are handed to the
	// column uncopied, so the accumulator must not be used afterwards.
	column(b *table.Builder, name string, groups int, order []int)
	// mergePartial folds group src of a worker-local partial accumulator into
	// group dst of this one, combining states instead of replaying rows: COUNT
	// partials add, SUM partials add, MIN/MAX partials compare, AVG merges its
	// (sum, count) pair. other must be the same concrete type built over the
	// same input table; dst grows this accumulator's state as needed. This is
	// what lets the parallel driver merge worker-local group tables into the
	// first worker's.
	mergePartial(dst int, other accumulator, src int)
	// cloneEmpty returns a fresh accumulator of the same concrete type over
	// the same input column, with empty per-group state. Read-only decode
	// state (code slices, dictionary values, rank tables) is shared with the
	// receiver, so the parallel kernels can hand each worker or partition its
	// own clone without rebuilding it per clone.
	cloneEmpty() accumulator
}

// cloneAccs clones a template accumulator slice for one worker or partition.
func cloneAccs(accs []accumulator) []accumulator {
	out := make([]accumulator, len(accs))
	for i, a := range accs {
		out[i] = a.cloneEmpty()
	}
	return out
}

// newAccs builds one accumulator per agg over the input table.
func newAccs(aggs []Agg, t *table.Table) []accumulator {
	accs := make([]accumulator, len(aggs))
	for i, a := range aggs {
		accs[i] = newAccumulator(a, t)
	}
	return accs
}

// observeAll feeds one block to every accumulator.
func observeAll(accs []accumulator, gids, rows []int32, groups int) {
	for _, acc := range accs {
		acc.observe(gids, rows, groups)
	}
}

// blockLen is the length of a scan's reused block buffers: one
// cancellation interval, or the whole input when it is smaller.
func blockLen(rows int) int {
	return min(rows, cancelCheckRows)
}

// rowBlock fills buf with the ascending row ids [lo, hi) and returns them.
func rowBlock(buf []int32, lo, hi int) []int32 {
	rows := buf[:hi-lo]
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	return rows
}

// growTo extends s with zero values to n entries.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// permute returns the first n entries of a state slice in output order:
// s[:n] itself when order is nil, else a fresh slice with entry k = s[order[k]].
func permute[T any](s []T, n int, order []int) []T {
	s = growTo(s, n)
	if order == nil {
		return s[:n]
	}
	out := make([]T, n)
	for k, g := range order {
		out[k] = s[g]
	}
	return out
}

// newAccumulator builds the accumulator for one agg over the input table.
func newAccumulator(a Agg, t *table.Table) accumulator {
	switch a.Kind {
	case AggCountStar:
		return &countStarAcc{}
	case AggCount:
		return &countAcc{codes: t.Col(a.Col).View()}
	case AggSum:
		col := t.Col(a.Col)
		switch col.Type() {
		case table.TFloat64:
			_, vals := col.NumericDict()
			return &sumFloatAcc{codes: col.View(), vals: vals}
		case table.TInt64, table.TDate:
			vals, _ := col.NumericDict()
			return &sumIntAcc{codes: col.View(), vals: vals}
		default:
			panic(fmt.Sprintf("exec: SUM over %s column %q", col.Type(), col.Name()))
		}
	case AggMin, AggMax:
		col := t.Col(a.Col)
		return &extremeAcc{col: col, codes: col.View(), ranks: col.Ranks(), min: a.Kind == AggMin}
	case AggAvg:
		col := t.Col(a.Col)
		switch col.Type() {
		case table.TFloat64:
			_, vals := col.NumericDict()
			return &avgAcc{codes: col.View(), vals: vals}
		case table.TInt64, table.TDate:
			ints, _ := col.NumericDict()
			fvals := make([]float64, len(ints))
			for i, v := range ints {
				fvals[i] = float64(v)
			}
			return &avgAcc{codes: col.View(), vals: fvals}
		default:
			panic(fmt.Sprintf("exec: AVG over %s column %q", col.Type(), col.Name()))
		}
	default:
		panic(fmt.Sprintf("exec: unknown aggregate kind %v", a.Kind))
	}
}

type countStarAcc struct{ counts []int64 }

func (a *countStarAcc) observe(gids, _ []int32, groups int) {
	a.counts = growTo(a.counts, groups)
	counts := a.counts
	for _, g := range gids {
		counts[g]++
	}
}
func (a *countStarAcc) column(b *table.Builder, name string, groups int, order []int) {
	table.AddMeasure(b, name, permute(a.counts, groups, order), nil)
}
func (a *countStarAcc) mergePartial(dst int, other accumulator, src int) {
	a.counts = growTo(a.counts, dst+1)
	a.counts[dst] += other.(*countStarAcc).counts[src]
}
func (a *countStarAcc) cloneEmpty() accumulator { return &countStarAcc{} }

type countAcc struct {
	codes  table.CodeView
	counts []int64
}

func (a *countAcc) observe(gids, rows []int32, groups int) {
	a.counts = growTo(a.counts, groups)
	counts, codes := a.counts, a.codes
	rows = rows[:len(gids)]
	for i, g := range gids {
		if codes.At(int(rows[i])) != 0 {
			counts[g]++
		}
	}
}
func (a *countAcc) column(b *table.Builder, name string, groups int, order []int) {
	table.AddMeasure(b, name, permute(a.counts, groups, order), nil)
}
func (a *countAcc) mergePartial(dst int, other accumulator, src int) {
	a.counts = growTo(a.counts, dst+1)
	a.counts[dst] += other.(*countAcc).counts[src]
}
func (a *countAcc) cloneEmpty() accumulator { return &countAcc{codes: a.codes} }

type sumIntAcc struct {
	codes table.CodeView
	vals  []int64 // dictionary values: code k decodes to vals[k-1]
	sums  []int64
	seen  []bool
}

func (a *sumIntAcc) observe(gids, rows []int32, groups int) {
	a.sums, a.seen = growTo(a.sums, groups), growTo(a.seen, groups)
	sums, seen, codes, vals := a.sums, a.seen, a.codes, a.vals
	rows = rows[:len(gids)]
	for i, g := range gids {
		if code := codes.At(int(rows[i])); code != 0 {
			sums[g] += vals[code-1]
			seen[g] = true
		}
	}
}
func (a *sumIntAcc) column(b *table.Builder, name string, groups int, order []int) {
	table.AddMeasure(b, name, permute(a.sums, groups, order), permute(a.seen, groups, order))
}
func (a *sumIntAcc) mergePartial(dst int, other accumulator, src int) {
	a.sums, a.seen = growTo(a.sums, dst+1), growTo(a.seen, dst+1)
	o := other.(*sumIntAcc)
	if o.seen[src] {
		a.sums[dst] += o.sums[src]
		a.seen[dst] = true
	}
}
func (a *sumIntAcc) cloneEmpty() accumulator { return &sumIntAcc{codes: a.codes, vals: a.vals} }

type sumFloatAcc struct {
	codes table.CodeView
	vals  []float64 // dictionary values: code k decodes to vals[k-1]
	sums  []float64
	seen  []bool
}

func (a *sumFloatAcc) observe(gids, rows []int32, groups int) {
	a.sums, a.seen = growTo(a.sums, groups), growTo(a.seen, groups)
	sums, seen, codes, vals := a.sums, a.seen, a.codes, a.vals
	rows = rows[:len(gids)]
	for i, g := range gids {
		if code := codes.At(int(rows[i])); code != 0 {
			sums[g] += vals[code-1]
			seen[g] = true
		}
	}
}
func (a *sumFloatAcc) column(b *table.Builder, name string, groups int, order []int) {
	table.AddMeasure(b, name, permute(a.sums, groups, order), permute(a.seen, groups, order))
}
func (a *sumFloatAcc) mergePartial(dst int, other accumulator, src int) {
	a.sums, a.seen = growTo(a.sums, dst+1), growTo(a.seen, dst+1)
	o := other.(*sumFloatAcc)
	if o.seen[src] {
		a.sums[dst] += o.sums[src]
		a.seen[dst] = true
	}
}
func (a *sumFloatAcc) cloneEmpty() accumulator { return &sumFloatAcc{codes: a.codes, vals: a.vals} }

// extremeAcc tracks MIN or MAX per group by dictionary code, comparing codes
// through the column's rank table (rank order == value order), so no value
// decoding happens on the hot path. NULLs are ignored per SQL.
type extremeAcc struct {
	col   *table.Column
	codes table.CodeView
	ranks []uint32
	min   bool
	best  []uint32 // code per group; nullCode means "no non-null value yet"
}

func (a *extremeAcc) observe(gids, rows []int32, groups int) {
	a.best = growTo(a.best, groups)
	best, codes, ranks, min := a.best, a.codes, a.ranks, a.min
	rows = rows[:len(gids)]
	for i, g := range gids {
		code := codes.At(int(rows[i]))
		if code == 0 {
			continue
		}
		if cur := best[g]; cur == 0 || min && ranks[code] < ranks[cur] || !min && ranks[code] > ranks[cur] {
			best[g] = code
		}
	}
}

// consider folds one candidate code into group g's best; best must already
// hold group g.
func (a *extremeAcc) consider(g int, code uint32) {
	if code == 0 {
		return
	}
	if cur := a.best[g]; cur == 0 || (a.min && a.ranks[code] < a.ranks[cur]) || (!a.min && a.ranks[code] > a.ranks[cur]) {
		a.best[g] = code
	}
}
func (a *extremeAcc) column(b *table.Builder, name string, groups int, order []int) {
	c := b.Like(a.col, name)
	for k, code := range permute(a.best, groups, order) {
		b.Set(k, c, code)
	}
}
func (a *extremeAcc) mergePartial(dst int, other accumulator, src int) {
	a.best = growTo(a.best, dst+1)
	a.consider(dst, other.(*extremeAcc).best[src])
}
func (a *extremeAcc) cloneEmpty() accumulator {
	return &extremeAcc{col: a.col, codes: a.codes, ranks: a.ranks, min: a.min}
}

// avgAcc computes AVG by carrying a mergeable (sum, count) pair per group.
// Int and date sources are averaged in float64. NULLs are ignored per SQL; an
// all-NULL group averages to NULL.
type avgAcc struct {
	codes  table.CodeView
	vals   []float64 // dictionary values: code k decodes to vals[k-1]
	sums   []float64
	counts []int64
}

func (a *avgAcc) observe(gids, rows []int32, groups int) {
	a.sums, a.counts = growTo(a.sums, groups), growTo(a.counts, groups)
	sums, counts, codes, vals := a.sums, a.counts, a.codes, a.vals
	rows = rows[:len(gids)]
	for i, g := range gids {
		if code := codes.At(int(rows[i])); code != 0 {
			sums[g] += vals[code-1]
			counts[g]++
		}
	}
}
func (a *avgAcc) column(b *table.Builder, name string, groups int, order []int) {
	avgs, counts := permute(a.sums, groups, order), permute(a.counts, groups, order)
	valid := make([]bool, groups)
	for k, n := range counts {
		if n != 0 {
			avgs[k] /= float64(n)
			valid[k] = true
		}
	}
	table.AddMeasure(b, name, avgs, valid)
}
func (a *avgAcc) mergePartial(dst int, other accumulator, src int) {
	a.sums, a.counts = growTo(a.sums, dst+1), growTo(a.counts, dst+1)
	o := other.(*avgAcc)
	a.sums[dst] += o.sums[src]
	a.counts[dst] += o.counts[src]
}
func (a *avgAcc) cloneEmpty() accumulator { return &avgAcc{codes: a.codes, vals: a.vals} }
