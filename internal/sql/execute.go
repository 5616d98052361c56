package sql

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/plan"
	"gbmqo/internal/table"
)

// Result is the outcome of executing a query.
type Result struct {
	// Table is the result set. Grouped queries produce the union-all shape of
	// GROUPING SETS output: all grouping columns (NULL where absent),
	// aggregate columns, and a grp_tag naming each row's grouping set.
	Table *table.Table
	// Plan is the logical plan used for the multi-group-by part (nil for
	// non-grouped queries).
	Plan *plan.Plan
	// Search reports optimizer effort when GB-MQO planned the query.
	Search core.SearchStats
	// Report accounts the plan execution (nil for non-grouped queries):
	// governance counters, degradations, and per-node kernel attribution. For
	// a pushed-down join it accounts the left side's multi-Group-By run.
	Report *engine.ExecReport
}

// tempSeq numbers ephemeral tables registered during execution.
var tempSeq atomic.Int64

func nextTempName(prefix string) string {
	return fmt.Sprintf("__%s_%d", prefix, tempSeq.Add(1))
}

// Run parses and executes a query against the engine. tmpl is the request
// template carrying every execution knob (strategy, cost model, search
// options, shared scan, parallelism, context, budget, cache, retry, partial
// results); the grouped part of the query runs as a copy of it with only
// Table, Sets and Aggs filled in, so no knob can be dropped on the way.
// WHERE-filtered and join-derived sources are ephemeral "__"-prefixed tables
// and bypass the cache whatever tmpl.UseCache says.
func Run(eng *engine.Engine, query string, tmpl engine.Request) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Execute(eng, q, tmpl)
}

// Execute runs a parsed query under the request template (see Run).
func Execute(eng *engine.Engine, q *Query, tmpl engine.Request) (*Result, error) {
	if q.From.Join != "" {
		return executeJoin(eng, q, tmpl)
	}
	base, ok := resolveTable(eng, q.From.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", q.From.Table)
	}
	src, cleanup, err := applyWhere(eng, base, q.Where)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return executeGrouping(eng, src, q, tmpl)
}

// applyWhere filters the source table, registering the derived table so the
// engine can plan over it. The returned cleanup drops it.
func applyWhere(eng *engine.Engine, base *table.Table, conds []Condition) (*table.Table, func(), error) {
	if len(conds) == 0 {
		return base, func() {}, nil
	}
	pred, err := buildPredicate(base, conds)
	if err != nil {
		return nil, nil, err
	}
	name := nextTempName("where")
	filtered := exec.Filter(base, name, pred)
	eng.Catalog().Register(filtered)
	return filtered, func() { eng.Catalog().Drop(name) }, nil
}

func buildPredicate(t *table.Table, conds []Condition) (func(int) bool, error) {
	var preds []func(int) bool
	for _, c := range conds {
		ord := resolveColumn(t, c.Column)
		if ord < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Column)
		}
		lit, err := typeLiteral(t.Col(ord).Type(), c.Lit)
		if err != nil {
			return nil, err
		}
		preds = append(preds, exec.CmpPredicate(t, ord, c.Op, lit))
	}
	return func(row int) bool {
		for _, p := range preds {
			if !p(row) {
				return false
			}
		}
		return true
	}, nil
}

// typeLiteral coerces a scanned literal to the column's type.
func typeLiteral(typ table.Type, lit litValue) (table.Value, error) {
	if lit.isString {
		if typ != table.TString {
			return table.Value{}, fmt.Errorf("sql: string literal compared to %s column", typ)
		}
		return table.Str(lit.s), nil
	}
	switch typ {
	case table.TInt64, table.TDate:
		n, err := strconv.ParseInt(lit.num, 10, 64)
		if err != nil {
			return table.Value{}, fmt.Errorf("sql: %q is not an integer literal", lit.num)
		}
		if typ == table.TDate {
			return table.Date(n), nil
		}
		return table.Int(n), nil
	case table.TFloat64:
		f, err := strconv.ParseFloat(lit.num, 64)
		if err != nil {
			return table.Value{}, fmt.Errorf("sql: %q is not a numeric literal", lit.num)
		}
		return table.Float(f), nil
	default:
		return table.Value{}, fmt.Errorf("sql: numeric literal compared to %s column", typ)
	}
}

// resolveTable finds a table by exact or case-insensitive name.
func resolveTable(eng *engine.Engine, name string) (*table.Table, bool) {
	if t, ok := eng.Catalog().Table(name); ok {
		return t, true
	}
	for _, n := range eng.Catalog().TableNames() {
		if strings.EqualFold(n, name) {
			return eng.Catalog().Table(n)
		}
	}
	return nil, false
}

// resolveColumn finds a column by case-insensitive name.
func resolveColumn(t *table.Table, name string) int {
	for i := 0; i < t.NumCols(); i++ {
		if strings.EqualFold(t.Col(i).Name(), name) {
			return i
		}
	}
	return -1
}

// BatchSpec is a grouped single-table query decomposed into scheduler form:
// the resolved base table, its grouping sets, the shared aggregate list, and
// whether the grand-total (empty) grouping set belongs to the result. It is
// how the SQL surface hands a statement to the micro-batching scheduler one
// grouping set at a time.
type BatchSpec struct {
	Table        string
	Sets         []colset.Set
	Aggs         []exec.Agg
	IncludeGrand bool
}

// Decompose resolves a parsed query into a BatchSpec. ok is false when the
// statement is not batchable by shape — joins, WHERE filters (their derived
// tables are ephemeral and private to one run) and non-grouped selects go
// down the solo path. Resolution failures (unknown table or column) are
// real errors regardless of shape.
func Decompose(eng *engine.Engine, q *Query) (spec *BatchSpec, ok bool, err error) {
	if q.From.Join != "" || len(q.Where) > 0 || q.Group.Kind == GroupNone {
		return nil, false, nil
	}
	src, found := resolveTable(eng, q.From.Table)
	if !found {
		return nil, false, fmt.Errorf("sql: unknown table %q", q.From.Table)
	}
	aggs, err := bindAggregates(src, q.Select)
	if err != nil {
		return nil, false, err
	}
	if len(aggs) == 0 {
		aggs = []exec.Agg{exec.CountStar()}
	}
	sets, includeGrand, err := expandGroupSpec(src, q.Group)
	if err != nil {
		return nil, false, err
	}
	return &BatchSpec{Table: src.Name(), Sets: sets, Aggs: aggs, IncludeGrand: includeGrand}, true, nil
}

// Assemble builds the GROUPING SETS union result shape from per-set result
// tables — the same assembly Execute performs, exported so a batching
// front-end that collected the per-set tables through the scheduler produces
// output byte-identical to a solo Run of the statement.
func Assemble(src *table.Table, spec *BatchSpec, results map[colset.Set]*table.Table) (*table.Table, error) {
	return assembleUnion(src, spec.Sets, spec.Aggs, results, spec.IncludeGrand)
}

// executeGrouping handles single-table queries.
func executeGrouping(eng *engine.Engine, src *table.Table, q *Query, tmpl engine.Request) (*Result, error) {
	aggs, err := bindAggregates(src, q.Select)
	if err != nil {
		return nil, err
	}
	if q.Group.Kind == GroupNone {
		if len(aggs) > 0 {
			out := exec.GroupByHash(src, nil, aggs, "result")
			return &Result{Table: out}, nil
		}
		return &Result{Table: src.Rename("result")}, nil
	}
	sets, includeGrand, err := expandGroupSpec(src, q.Group)
	if err != nil {
		return nil, err
	}
	if len(aggs) == 0 {
		aggs = []exec.Agg{exec.CountStar()}
	}
	req := tmpl
	req.Table, req.Sets, req.Aggs = src.Name(), sets, aggs
	run, err := eng.Run(req)
	if err != nil {
		return nil, err
	}
	out, err := assembleUnion(src, sets, aggs, run.Report.Results, includeGrand)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out, Plan: run.Plan, Search: run.Search, Report: run.Report}, nil
}

// bindAggregates turns the select list's aggregate items into exec.Agg specs.
// Plain column references must be grouping columns (checked by the engine
// implicitly: the output carries all grouping columns anyway).
func bindAggregates(t *table.Table, items []SelectItem) ([]exec.Agg, error) {
	var aggs []exec.Agg
	names := map[string]bool{}
	for _, it := range items {
		if it.Star || it.Agg == "" {
			continue
		}
		a := exec.Agg{}
		switch {
		case it.AggStar:
			a = exec.CountStar()
		default:
			ord := resolveColumn(t, it.Column)
			if ord < 0 {
				return nil, fmt.Errorf("sql: unknown column %q in %s()", it.Column, it.Agg)
			}
			a.Col = ord
			switch it.Agg {
			case "COUNT":
				a.Kind = exec.AggCount
			case "SUM":
				a.Kind = exec.AggSum
			case "MIN":
				a.Kind = exec.AggMin
			case "MAX":
				a.Kind = exec.AggMax
			default:
				return nil, fmt.Errorf("sql: unsupported aggregate %q", it.Agg)
			}
			a.Name = strings.ToLower(it.Agg) + "_" + strings.ToLower(it.Column)
		}
		if it.Alias != "" {
			a.Name = strings.ToLower(it.Alias)
		}
		if names[a.Name] {
			return nil, fmt.Errorf("sql: duplicate output column %q", a.Name)
		}
		names[a.Name] = true
		aggs = append(aggs, a)
	}
	return aggs, nil
}

// expandGroupSpec resolves the GROUP BY clause to column sets. The second
// return value reports whether the grand-total (empty) grouping set is part
// of the query (CUBE and ROLLUP include it per SQL).
func expandGroupSpec(t *table.Table, g GroupSpec) ([]colset.Set, bool, error) {
	resolve := func(names []string) (colset.Set, error) {
		var s colset.Set
		for _, n := range names {
			ord := resolveColumn(t, n)
			if ord < 0 {
				return 0, fmt.Errorf("sql: unknown grouping column %q", n)
			}
			if ord >= colset.MaxColumns {
				return 0, fmt.Errorf("sql: column ordinal %d exceeds the %d-column grouping limit", ord, colset.MaxColumns)
			}
			s = s.Add(ord)
		}
		return s, nil
	}
	var sets []colset.Set
	grand := false
	add := func(s colset.Set) {
		if s.IsEmpty() {
			grand = true
			return
		}
		for _, have := range sets {
			if have == s {
				return
			}
		}
		sets = append(sets, s)
	}
	switch g.Kind {
	case GroupPlain:
		s, err := resolve(g.Cols)
		if err != nil {
			return nil, false, err
		}
		add(s)
	case GroupGroupingSets:
		for _, names := range g.Sets {
			s, err := resolve(names)
			if err != nil {
				return nil, false, err
			}
			add(s)
		}
	case GroupCube:
		full, err := resolve(g.Cols)
		if err != nil {
			return nil, false, err
		}
		full.Subsets(func(s colset.Set) bool { add(s); return true })
	case GroupRollup:
		var prefix []string
		grand = true
		for _, c := range g.Cols {
			prefix = append(prefix, c)
			s, err := resolve(prefix)
			if err != nil {
				return nil, false, err
			}
			add(s)
		}
	case GroupCombi:
		full, err := resolve(g.Cols)
		if err != nil {
			return nil, false, err
		}
		full.Subsets(func(s colset.Set) bool {
			if !s.IsEmpty() && s.Len() <= g.CombiK {
				add(s)
			}
			return true
		})
	default:
		return nil, false, fmt.Errorf("sql: unsupported group kind %v", g.Kind)
	}
	if len(sets) == 0 && !grand {
		return nil, false, fmt.Errorf("sql: GROUP BY resolved to no grouping sets")
	}
	colset.SortSets(sets)
	return sets, grand, nil
}

// assembleUnion builds the GROUPING SETS result shape: the union of all
// grouping columns, the aggregates, and a grp_tag. The grand-total row, when
// requested, is rolled up from the first grouping set's result.
func assembleUnion(src *table.Table, sets []colset.Set, aggs []exec.Agg, results map[colset.Set]*table.Table, includeGrand bool) (*table.Table, error) {
	union := colset.UnionAll(sets)
	var outCols []table.ColumnDef
	union.ForEach(func(c int) {
		outCols = append(outCols, src.Col(c).Def())
	})
	for _, a := range aggs {
		outCols = append(outCols, table.ColumnDef{Name: a.Name, Typ: aggOutType(src, a)})
	}
	var parts []*table.Table
	var tags []string
	names := src.ColNames()
	for _, s := range sets {
		res, ok := results[s]
		if !ok {
			return nil, fmt.Errorf("sql: missing result for grouping set %s", s)
		}
		parts = append(parts, res)
		tags = append(tags, s.Format(names))
	}
	if includeGrand {
		if len(sets) == 0 {
			parts = append(parts, exec.GroupByHash(src, nil, aggs, "grand"))
		} else {
			first := results[sets[0]]
			rolled := make([]exec.Agg, len(aggs))
			for i, a := range aggs {
				ord := first.ColIndex(a.Name)
				if ord < 0 {
					return nil, fmt.Errorf("sql: aggregate %q missing from intermediate", a.Name)
				}
				rolled[i] = a.Rollup(ord)
			}
			parts = append(parts, exec.GroupByHash(first, nil, rolled, "grand"))
		}
		tags = append(tags, "()")
	}
	return exec.UnionAllTagged("result", outCols, parts, tags)
}

// aggOutType mirrors the accumulator output types.
func aggOutType(src *table.Table, a exec.Agg) table.Type {
	switch a.Kind {
	case exec.AggCountStar, exec.AggCount:
		return table.TInt64
	case exec.AggSum:
		if src.Col(a.Col).Type() == table.TFloat64 {
			return table.TFloat64
		}
		return table.TInt64
	default:
		return src.Col(a.Col).Type()
	}
}
