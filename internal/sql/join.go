package sql

import (
	"fmt"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// executeJoin handles GROUPING SETS queries over an inner equi-join
// (§5.1.1). When every aggregate is COUNT(*) and every grouping column lives
// on the left relation, the grouping-set computation is pushed below the
// join, Figure-8 style: the left side computes Group Bys on (s ∪ {joincol})
// — shared through GB-MQO, including the optimizer-introduced supersets — the
// right side pre-aggregates on its join column, and each pushed-down result
// joins and re-aggregates with its counts multiplied. Anything else falls
// back to materializing the join and grouping over it.
func executeJoin(eng *engine.Engine, q *Query, tmpl engine.Request) (*Result, error) {
	left, ok := resolveTable(eng, q.From.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", q.From.Table)
	}
	right, ok := resolveTable(eng, q.From.Join)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", q.From.Join)
	}
	lKey := resolveColumn(left, q.From.LeftCol)
	rKey := resolveColumn(right, q.From.RightCol)
	if lKey < 0 || rKey < 0 {
		return nil, fmt.Errorf("sql: join columns %q/%q not found", q.From.LeftCol, q.From.RightCol)
	}

	// Split WHERE conjuncts by the side owning the column.
	var lConds, rConds []Condition
	for _, c := range q.Where {
		switch {
		case resolveColumn(left, c.Column) >= 0:
			lConds = append(lConds, c)
		case resolveColumn(right, c.Column) >= 0:
			rConds = append(rConds, c)
		default:
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Column)
		}
	}
	lSrc, lCleanup, err := applyWhere(eng, left, lConds)
	if err != nil {
		return nil, err
	}
	defer lCleanup()
	rSrc := right
	if len(rConds) > 0 {
		pred, err := buildPredicate(right, rConds)
		if err != nil {
			return nil, err
		}
		rSrc = exec.Filter(right, nextTempName("rwhere"), pred)
	}

	if pushable(lSrc, q) {
		return pushdownJoin(eng, q, tmpl, lSrc, rSrc, lKey, rKey)
	}

	// Fallback: materialize the join and group over it.
	joined := exec.HashJoin(lSrc, rSrc, lKey, rKey, nextTempName("join"))
	eng.Catalog().Register(joined)
	defer eng.Catalog().Drop(joined.Name())
	return executeGrouping(eng, joined, q, tmpl)
}

// pushable reports whether the §5.1.1 pushdown applies: grouped query, all
// grouping columns on the left side, and COUNT(*)-only aggregates.
func pushable(left *table.Table, q *Query) bool {
	if q.Group.Kind == GroupNone {
		return false
	}
	nAggs := 0
	for _, it := range q.Select {
		if it.Agg == "" {
			continue
		}
		if !it.AggStar {
			return false
		}
		nAggs++
	}
	if nAggs > 1 {
		return false
	}
	cols := q.Group.Cols
	for _, set := range q.Group.Sets {
		cols = append(cols, set...)
	}
	for _, c := range cols {
		if resolveColumn(left, c) < 0 {
			return false
		}
	}
	return true
}

// rcntCol is the right side's pre-aggregated count column.
const rcntCol = "__rcnt"

func pushdownJoin(eng *engine.Engine, q *Query, tmpl engine.Request, left, right *table.Table, lKey, rKey int) (*Result, error) {
	sets, includeGrand, err := expandGroupSpec(left, q.Group)
	if err != nil {
		return nil, err
	}
	aggs, err := bindAggregates(left, q.Select)
	if err != nil {
		return nil, err
	}
	if len(aggs) == 0 {
		aggs = []exec.Agg{exec.CountStar()}
	}
	cntName := aggs[0].Name

	// Push the join column into every grouping set (the pushed-down Group
	// Bys "will need to include the join attribute in the grouping").
	augmented := make([]colset.Set, 0, len(sets))
	seen := map[colset.Set]bool{}
	for _, s := range sets {
		a := s.Add(lKey)
		if !seen[a] {
			seen[a] = true
			augmented = append(augmented, a)
		}
	}

	// Left side: one multi-group-by computation, shared via the chosen
	// strategy. The left source must be registered for the engine to plan it.
	registered := left
	if _, ok := eng.Catalog().Table(left.Name()); !ok {
		eng.Catalog().Register(left)
		defer eng.Catalog().Drop(left.Name())
	}
	req := tmpl
	req.Table, req.Sets = registered.Name(), augmented
	req.Aggs = []exec.Agg{{Kind: exec.AggCountStar, Name: cntName}}
	run, err := eng.Run(req)
	if err != nil {
		return nil, err
	}

	// Right side: pre-aggregate counts per join value.
	rightAgg := exec.GroupByHash(right, []int{rKey}, []exec.Agg{{Kind: exec.AggCountStar, Name: rcntCol}}, "rside")

	// For each requested set: join its pushed-down result, multiply counts,
	// and re-aggregate to the original grouping columns.
	results := map[colset.Set]*table.Table{}
	for _, s := range sets {
		part := run.Report.Results[s.Add(lKey)]
		if part == nil {
			return nil, fmt.Errorf("sql: missing pushed-down result for %s", s.Add(lKey))
		}
		partKey := part.ColIndex(left.Col(lKey).Name())
		if partKey < 0 {
			return nil, fmt.Errorf("sql: pushed-down result lost the join column")
		}
		joined := exec.HashJoin(part, rightAgg, partKey, 0, "j")
		scaled, err := multiplyCounts(joined, cntName, rcntCol, left, s)
		if err != nil {
			return nil, err
		}
		final := exec.GroupByHash(scaled, groupOrdinals(scaled, left, s),
			[]exec.Agg{{Kind: exec.AggSum, Col: scaled.ColIndex(cntName), Name: cntName}}, "agg")
		results[s] = final
	}
	out, err := assembleUnion(left, sets, aggs, results, includeGrand)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out, Plan: run.Plan, Search: run.Search, Report: run.Report}, nil
}

// multiplyCounts builds a table with the grouping columns of s plus a count
// column equal to cnt × rcnt for each joined row.
func multiplyCounts(joined *table.Table, cntName, rcntName string, base *table.Table, s colset.Set) (*table.Table, error) {
	cnt := joined.ColByName(cntName)
	rcnt := joined.ColByName(rcntName)
	if cnt == nil || rcnt == nil {
		return nil, fmt.Errorf("sql: join result lacks count columns")
	}
	var cols []*table.Column
	s.ForEach(func(c int) {
		name := base.Col(c).Name()
		src := joined.ColByName(name)
		cols = append(cols, src)
	})
	for _, c := range cols {
		if c == nil {
			return nil, fmt.Errorf("sql: join result lost a grouping column")
		}
	}
	// The join gathered both count columns, so decode their codes through
	// their dictionaries; counts are never NULL (code 0).
	cv, _ := cnt.NumericDict()
	rv, _ := rcnt.NumericDict()
	cc, rc := cnt.Codes(), rcnt.Codes()
	prod := make([]int64, joined.NumRows())
	for i := range prod {
		prod[i] = cv[cc[i]-1] * rv[rc[i]-1]
	}
	return table.FromColumns("scaled", append(cols, table.MeasureColumn(cntName, prod, nil))), nil
}

// groupOrdinals maps base grouping ordinals to a derived table's ordinals.
func groupOrdinals(t *table.Table, base *table.Table, s colset.Set) []int {
	var out []int
	s.ForEach(func(c int) {
		out = append(out, t.ColIndex(base.Col(c).Name()))
	})
	return out
}
