// Package cost implements the two cost models of §3.2. Both price one edge
// u→v of a logical plan — computing Group By v from parent u and optionally
// materializing the result — and both count how often they are consulted,
// which is the "number of optimizer calls" metric of §6.4–§6.6.
package cost

import (
	"gbmqo/internal/colset"
	"gbmqo/internal/index"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// Env describes one base relation to the cost models: its cardinality, column
// widths, physical design, and the statistics used to estimate group-by
// cardinalities. Group By results are always subsets of base columns, so NDV
// estimates for any node in the search DAG come from base-table statistics
// (for v ⊆ u, the distinct combinations of v in GroupBy(u) equal those in R).
type Env struct {
	base    *table.Table
	stats   *stats.Service
	indexes []*index.Index
	// unprofiled prices from built statistics only (see Unprofiled).
	unprofiled bool
}

// NewEnv builds a costing environment. indexes may be nil.
func NewEnv(base *table.Table, svc *stats.Service, indexes []*index.Index) *Env {
	return &Env{base: base, stats: svc, indexes: indexes}
}

// Base returns the base relation.
func (e *Env) Base() *table.Table { return e.base }

// BaseRows returns |R|.
func (e *Env) BaseRows() float64 { return float64(e.base.NumRows()) }

// NDV estimates |GroupBy(set)| through the statistics service.
func (e *Env) NDV(set colset.Set) float64 {
	if e.unprofiled {
		if v, ok := e.CachedNDV(set); ok {
			return v
		}
		return stats.UpperNDV(e.base, set)
	}
	return e.stats.NDV(e.base, set)
}

// Unprofiled returns a copy of the environment whose NDV builds no
// statistic: it answers from statistics already built, else from the
// sandwich upper bound. A plan that needs no estimate to be chosen (Naive)
// is sized and priced through it, so running it profiles nothing.
func (e *Env) Unprofiled() *Env {
	c := *e
	c.unprofiled = true
	return &c
}

// CachedNDV answers |GroupBy(set)| from already-built statistics without
// creating any (see stats.Service.CachedNDV). The execution layer's kernel
// chooser reads estimates through this so choosing a kernel never triggers
// mid-query profiling.
func (e *Env) CachedNDV(set colset.Set) (float64, bool) { return e.stats.CachedNDV(e.base, set) }

// Width returns the average byte width of the given base columns.
func (e *Env) Width(set colset.Set) float64 { return e.base.WidthBytes(set) }

// Indexes returns the physical design.
func (e *Env) Indexes() []*index.Index { return e.indexes }

// SetIndexes replaces the physical design (used by the §6.9 experiment as it
// adds indexes step by step).
func (e *Env) SetIndexes(ixs []*index.Index) { e.indexes = ixs }

// Edge identifies one plan edge for costing. ParentIsBase distinguishes the
// root relation R from an intermediate node with grouping set Parent.
type Edge struct {
	ParentIsBase bool
	Parent       colset.Set // grouping set of the parent when not base
	// ParentRows, when positive, is the parent's exact row count — a cached
	// result's size, known without a statistic — used in place of
	// NDV(Parent). Zero estimates it from statistics.
	ParentRows  float64
	V           colset.Set // grouping set being computed
	NAggs       int        // number of aggregate columns carried
	Materialize bool       // v is an intermediate that must be written out
}

// parentRows is the edge's parent size when the parent is not the base
// relation: its known rows, or its estimated group count.
func (e Edge) parentRows(env *Env) float64 {
	if e.ParentRows > 0 {
		return e.ParentRows
	}
	return env.NDV(e.Parent)
}

// Model prices plan edges.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// EdgeCost estimates the cost of one edge.
	EdgeCost(Edge) float64
	// Calls returns how many edge costings have been performed — the paper's
	// "number of calls to the query optimizer" metric.
	Calls() int
	// ResetCalls zeroes the counter.
	ResetCalls()
}

// counter implements call accounting for embedding into models.
type counter struct{ n int }

func (c *counter) Calls() int  { return c.n }
func (c *counter) ResetCalls() { c.n = 0 }
func (c *counter) bump()       { c.n++ }

// Cardinality is the §3.2.1 model: the cost of an edge u→v is |u|, the number
// of rows scanned; materialization is free. Its simplicity is what makes the
// pruning-soundness claims (§4.3) provable, and the NP-hardness reduction
// (Appendix A) is stated against it.
type Cardinality struct {
	counter
	env *Env
}

// NewCardinality builds the cardinality model over env.
func NewCardinality(env *Env) *Cardinality { return &Cardinality{env: env} }

// Name implements Model.
func (m *Cardinality) Name() string { return "cardinality" }

// EdgeCost implements Model: cost = |parent|.
func (m *Cardinality) EdgeCost(e Edge) float64 {
	m.bump()
	if e.ParentIsBase {
		return m.env.BaseRows()
	}
	return e.parentRows(m.env)
}

// Coefficients tunes the Optimizer model. The defaults were set by hand
// against the execution engine so that estimated costs rank plans the way
// wall-clock times do; no test pins that calibration yet.
type Coefficients struct {
	// ReadByte is the cost of scanning one byte from a table.
	ReadByte float64
	// WriteByte is the cost of materializing one byte into a temp table.
	WriteByte float64
	// HashRow is the per-row cost of hashing/probing in a hash aggregate.
	HashRow float64
	// GroupBuild is the per-output-group cost of creating a group.
	GroupBuild float64
	// StreamRow is the per-row cost of boundary detection when streaming an
	// index in order (replaces HashRow on index paths).
	StreamRow float64
	// IndexGroupRead is the per-group cost of the exact-match index path that
	// reads counts off precomputed boundaries.
	IndexGroupRead float64
	// AggWidth is the assumed byte width of one aggregate column.
	AggWidth float64
}

// DefaultCoefficients returns the hand-set defaults. The ratios follow the
// execution engine: hashing one row costs ~40 units, creating one output
// group ~200 units (mostly the group table's probe and insert; emission is a
// few percent of a cold round's CPU profile), and materializing adds ~4
// units per byte. Getting the per-group terms right is what stops the
// optimizer from accepting merges whose intermediate is nearly as large as
// the base table.
func DefaultCoefficients() Coefficients {
	return Coefficients{
		ReadByte:       1,
		WriteByte:      4,
		HashRow:        40,
		GroupBuild:     200,
		StreamRow:      10,
		IndexGroupRead: 100,
		AggWidth:       8,
	}
}

// codeWidth is the per-column byte width of the engine's row-store scan image
// (table.RowImage stores one 4-byte code per column per row). Scan and
// materialization costs are expressed against this width so the model tracks
// the engine's real memory traffic.
const codeWidth = 4.0

// Optimizer is the §3.2.2 model: it prices the actual physical work of the
// execution engine — scan, aggregate, materialize — and is aware of the
// physical design, so (like a commercial optimizer's what-if mode) an index
// on the grouping columns lowers the estimate and changes plan choice (§6.9).
// Scans are priced row-store style: a Group By over relation u reads u's
// full row width regardless of how few columns it groups on (the engine's
// table.RowImage behaves the same way), which is exactly why computing many
// narrow Group Bys from a narrow materialized intermediate wins.
type Optimizer struct {
	counter
	env  *Env
	coef Coefficients
}

// NewOptimizer builds the optimizer cost model with the given coefficients
// (zero value selects the defaults).
func NewOptimizer(env *Env, coef Coefficients) *Optimizer {
	if coef == (Coefficients{}) {
		coef = DefaultCoefficients()
	}
	return &Optimizer{env: env, coef: coef}
}

// Name implements Model.
func (m *Optimizer) Name() string { return "optimizer" }

// EdgeCost implements Model. It prices the edge as the sequential executor
// runs it: an index path when one matches, else a row-store hash aggregate,
// plus materialization when the target is kept.
func (m *Optimizer) EdgeCost(e Edge) float64 {
	m.bump()
	c := m.coef
	groupsV := m.env.NDV(e.V)
	// Result row width: one code per grouping column plus the aggregates.
	widthV := codeWidth*float64(e.V.Len()) + float64(e.NAggs)*c.AggWidth

	var compute float64
	switch {
	case e.ParentIsBase && m.exactIndex(e.V) != nil:
		// Counts straight off index boundaries: O(#groups), no base scan.
		compute = groupsV * (widthV*c.ReadByte + c.IndexGroupRead)
	case e.ParentIsBase && m.prefixIndex(e.V) != nil:
		// Prefix-match index path: walk the index's full-key group
		// boundaries, O(#full-key groups), never touching the base table.
		ix := m.prefixIndex(e.V)
		compute = float64(ix.NumGroups())*(codeWidth*float64(e.V.Len())*c.ReadByte+c.StreamRow) + groupsV*c.GroupBuild
	default:
		// Row-store hash aggregate: the scan pays the parent's full width.
		rows := m.env.BaseRows()
		scanWidth := codeWidth * float64(m.env.Base().NumCols())
		if !e.ParentIsBase {
			rows = e.parentRows(m.env)
			scanWidth = codeWidth*float64(e.Parent.Len()) + float64(e.NAggs)*c.AggWidth
		}
		compute = rows*(scanWidth*c.ReadByte+c.HashRow) + groupsV*c.GroupBuild
	}
	if e.Materialize {
		compute += groupsV * widthV * c.WriteByte
	}
	return compute
}

// exactIndex returns an index whose full key is exactly v, if any.
func (m *Optimizer) exactIndex(v colset.Set) *index.Index {
	best := index.BestFor(m.env.indexes, v)
	if best != nil && best.ExactMatch(v) {
		return best
	}
	return nil
}

// prefixIndex returns an index having v as a proper key prefix, if any.
func (m *Optimizer) prefixIndex(v colset.Set) *index.Index {
	best := index.BestFor(m.env.indexes, v)
	if best != nil && best.PrefixLen(v) > 0 {
		return best
	}
	return nil
}
