// Package plan implements logical plans for multi-Group-By computation
// (§3.1): directed trees over the search DAG, rooted at the base relation R,
// whose nodes are Group By queries. An edge u→v means v is computed as a
// Group By over (the materialized result of) u. The package provides plan
// validation, costing against a cost model, the intermediate-storage
// minimizing execution schedule of §4.4, and SQL emission for the client-side
// implementation of §5.2.
package plan

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"gbmqo/internal/colset"
	"gbmqo/internal/cost"
	"gbmqo/internal/exec"
)

// Op is the operator a node executes (§7.1 extends plain Group By nodes with
// CUBE and ROLLUP alternatives).
type Op int

// Node operators.
const (
	OpGroupBy Op = iota
	OpCube
	OpRollup
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpGroupBy:
		return "GROUP BY"
	case OpCube:
		return "CUBE"
	case OpRollup:
		return "ROLLUP"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Node is one query in a logical plan.
type Node struct {
	// Set is the grouping column set (ordinals on the base relation).
	Set colset.Set
	// Required marks sets the user asked for (they must be emitted).
	Required bool
	// Op is the node's operator. OpCube computes every subset of Set, OpRollup
	// every prefix (§7.1); required children whose sets those cover are
	// emitted directly from the operator's output.
	Op Op
	// RollupOrder fixes the column significance order for OpRollup.
	RollupOrder []int
	// Children are computed from this node's materialized result.
	Children []*Node
	// Kernel is the aggregation kernel the node's scan runs, with the groups
	// it is estimated to produce, picked once by the planner (see
	// engine.Plan). The zero value, on a plan nobody picked for, runs a
	// sequential hash scan.
	Kernel exec.KernelChoice
	// Levels holds, for a CUBE or ROLLUP node, the kernel of each covered
	// level below Set, keyed by the level's set.
	Levels map[colset.Set]exec.KernelChoice
}

// NewNode builds a plain Group By node.
func NewNode(set colset.Set, required bool) *Node {
	return &Node{Set: set, Required: required}
}

// Clone deep-copies the subtree.
func (n *Node) Clone() *Node {
	out := &Node{Set: n.Set, Required: n.Required, Op: n.Op, Kernel: n.Kernel, Levels: maps.Clone(n.Levels)}
	if n.RollupOrder != nil {
		out.RollupOrder = append([]int(nil), n.RollupOrder...)
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	return out
}

// IsIntermediate reports whether the node's result must be materialized: it
// has children to feed. (A required node with children is materialized *and*
// emitted.)
func (n *Node) IsIntermediate() bool { return len(n.Children) > 0 }

// Walk visits the subtree pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	total := 0
	n.Walk(func(*Node) { total++ })
	return total
}

// sortChildren orders children deterministically (by cardinality then bits).
func (n *Node) sortChildren() {
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := n.Children[i].Set, n.Children[j].Set
		if la, lb := a.Len(), b.Len(); la != lb {
			return la < lb
		}
		return a < b
	})
	for _, c := range n.Children {
		c.sortChildren()
	}
}

// Plan is a logical plan: a forest of sub-plans whose roots are computed
// directly from the base relation R (§3.1 calls the trees under R
// "sub-plans").
type Plan struct {
	// BaseName names the base relation (for printing and SQL emission).
	BaseName string
	// ColNames names the base columns, indexed by ordinal.
	ColNames []string
	// Roots are the sub-plan roots, each computed directly from R.
	Roots []*Node
}

// Naive builds the §4.2 starting point: every required set computed directly
// from R.
func Naive(baseName string, colNames []string, required []colset.Set) *Plan {
	p := &Plan{BaseName: baseName, ColNames: colNames}
	for _, s := range required {
		p.Roots = append(p.Roots, NewNode(s, true))
	}
	return p
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	out := &Plan{BaseName: p.BaseName, ColNames: p.ColNames}
	for _, r := range p.Roots {
		out.Roots = append(out.Roots, r.Clone())
	}
	return out
}

// Normalize orders sub-plans and children deterministically so equivalent
// plans print identically.
func (p *Plan) Normalize() {
	for _, r := range p.Roots {
		r.sortChildren()
	}
	sort.Slice(p.Roots, func(i, j int) bool {
		a, b := p.Roots[i].Set, p.Roots[j].Set
		if la, lb := a.Len(), b.Len(); la != lb {
			return la < lb
		}
		return a < b
	})
}

// Validate checks structural invariants: every child's set is a proper subset
// of its parent's (except under CUBE/ROLLUP, where covered children are
// allowed to equal prefixes), no column set appears twice, and the required
// sets are exactly `required`.
func (p *Plan) Validate(required []colset.Set) error {
	seen := map[colset.Set]*Node{}
	var reqSeen []colset.Set
	var walk func(n *Node, parent *Node) error
	walk = func(n *Node, parent *Node) error {
		if prev, dup := seen[n.Set]; dup && prev != n {
			return fmt.Errorf("plan: set %s appears twice", n.Set)
		}
		seen[n.Set] = n
		if parent != nil && !n.Set.ProperSubsetOf(parent.Set) {
			return fmt.Errorf("plan: child %s not a proper subset of parent %s", n.Set, parent.Set)
		}
		if n.Set.IsEmpty() {
			return fmt.Errorf("plan: empty grouping set")
		}
		if n.Required {
			reqSeen = append(reqSeen, n.Set)
		}
		for _, c := range n.Children {
			if err := walk(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range p.Roots {
		if err := walk(r, nil); err != nil {
			return err
		}
	}
	want := append([]colset.Set(nil), required...)
	colset.SortSets(want)
	colset.SortSets(reqSeen)
	if len(want) != len(reqSeen) {
		return fmt.Errorf("plan: %d required nodes, want %d", len(reqSeen), len(want))
	}
	for i := range want {
		if want[i] != reqSeen[i] {
			return fmt.Errorf("plan: required set %s missing (found %s)", want[i], reqSeen[i])
		}
	}
	return nil
}

// Cost sums the model's edge costs over the plan. nAggs is the number of
// aggregate columns each query carries (1 for the paper's COUNT(*) setting).
// CUBE/ROLLUP nodes are priced as the sum of computing every covered subset
// from the parent's materialization of Set (see cubeCost).
func (p *Plan) Cost(m cost.Model, nAggs int) float64 {
	total := 0.0
	for _, r := range p.Roots {
		total += SubtreeCost(r, m, nAggs)
	}
	return total
}

// SubtreeCost prices a sub-plan whose root is computed directly from R.
func SubtreeCost(root *Node, m cost.Model, nAggs int) float64 {
	return nodeCost(root, m, nAggs, true, colset.Set(0))
}

func nodeCost(n *Node, m cost.Model, nAggs int, parentIsBase bool, parent colset.Set) float64 {
	edge := cost.Edge{
		ParentIsBase: parentIsBase,
		Parent:       parent,
		V:            n.Set,
		NAggs:        nAggs,
		Materialize:  n.IsIntermediate(),
	}
	total := m.EdgeCost(edge) + coveredCost(n, m, nAggs)
	for _, c := range n.Children {
		if n.Op != OpGroupBy && Covered(n, c.Set) {
			// The operator's own output already contains this child; only its
			// descendants cost anything (computed from the covered result).
			for _, gc := range c.Children {
				total += nodeCost(gc, m, nAggs, false, c.Set)
			}
			continue
		}
		total += nodeCost(c, m, nAggs, false, n.Set)
	}
	return total
}

// coveredCost prices producing all covered subsets level-wise, the way a
// pipelined cube/rollup implementation (PipeSort/PipeHash, §5.1) computes
// them: each covered set is computed from its covering parent one level up
// (CubeParent / the rollup chain), not from the full materialized Set. This
// is what makes the §7.1 alternatives genuinely cheaper when many small
// subsets are required.
func coveredCost(n *Node, m cost.Model, nAggs int) float64 {
	total := 0.0
	for _, s := range CoveredSets(n) {
		if s == n.Set {
			continue
		}
		total += m.EdgeCost(cost.Edge{
			ParentIsBase: false,
			Parent:       CoveredParent(n, s),
			V:            s,
			NAggs:        nAggs,
			Materialize:  false,
		})
	}
	return total
}

// CoveredParent returns the covered set one level up that a covered set s is
// computed from inside a CUBE/ROLLUP node: for ROLLUP the next-longer prefix;
// for CUBE the set s plus the lowest missing column (a deterministic choice
// shared with the executor).
func CoveredParent(n *Node, s colset.Set) colset.Set {
	if n.Op == OpRollup {
		var prefix colset.Set
		for _, c := range n.RollupOrder {
			next := prefix.Add(c)
			if prefix == s {
				return next
			}
			prefix = next
		}
		return n.Set
	}
	missing := n.Set.Diff(s)
	if missing.IsEmpty() {
		return n.Set
	}
	return s.Add(missing.Min())
}

// CoveredSets lists the sets a CUBE or ROLLUP node's operator computes —
// every non-empty subset of Set, or every prefix of RollupOrder, Set among
// them — smallest first, so each set's CoveredParent comes after it. A plain
// Group By covers nothing.
func CoveredSets(n *Node) []colset.Set {
	var out []colset.Set
	switch n.Op {
	case OpCube:
		n.Set.Subsets(func(s colset.Set) bool {
			if !s.IsEmpty() {
				out = append(out, s)
			}
			return true
		})
	case OpRollup:
		var prefix colset.Set
		for _, c := range n.RollupOrder {
			prefix = prefix.Add(c)
			out = append(out, prefix)
		}
	}
	colset.SortSets(out)
	return out
}

// Covered reports whether the node's operator output already contains set.
func Covered(n *Node, set colset.Set) bool {
	switch n.Op {
	case OpCube:
		return set.ProperSubsetOf(n.Set)
	case OpRollup:
		var prefix colset.Set
		for _, c := range n.RollupOrder {
			prefix = prefix.Add(c)
			if prefix == set {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// String renders the plan as an indented tree using column names.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.BaseName)
	for _, r := range p.Roots {
		p.writeNode(&b, r, 1)
	}
	return b.String()
}

func (p *Plan) writeNode(b *strings.Builder, n *Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.Op != OpGroupBy {
		fmt.Fprintf(b, "%s ", n.Op)
	}
	b.WriteString(n.Set.Format(p.ColNames))
	if n.Required {
		b.WriteString(" *")
	}
	if n.IsIntermediate() {
		b.WriteString(" [materialized]")
	}
	if n.Kernel.Reason != "" {
		fmt.Fprintf(b, " <%s>", n.Kernel.Kind)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		p.writeNode(b, c, depth+1)
	}
}

// TempName generates the deterministic temp-table name for a node's set.
func TempName(set colset.Set) string {
	cols := set.Columns()
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return "tmp_gb_" + strings.Join(parts, "_")
}
