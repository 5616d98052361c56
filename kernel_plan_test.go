package gbmqo

import (
	"testing"

	"gbmqo/internal/datagen"
	"gbmqo/internal/plan"
)

// seedOneRound is the benchmark's seed-1 batch round over lineitem: the
// twelve single-column SC sets and ten column pairs, each one Execute, then
// one GROUPING SETS statement.
func seedOneRound() ([][][]string, string) {
	defs := datagen.LineitemDefs()
	var sc [][]string
	for _, ord := range datagen.LineitemSC() {
		sc = append(sc, []string{defs[ord].Name})
	}
	return [][][]string{sc, {
			{"l_shipdate", "l_receiptdate"}, {"l_shipdate", "l_commitdate"}, {"l_receiptdate", "l_commitdate"},
			{"l_shipdate", "l_linestatus"}, {"l_receiptdate", "l_returnflag"}, {"l_commitdate", "l_linenumber"},
			{"l_linestatus", "l_shipinstruct"}, {"l_returnflag", "l_linenumber"},
			{"l_shipinstruct", "l_shipmode"}, {"l_shipmode", "l_quantity"},
		}}, "SELECT COUNT(*) FROM lineitem GROUP BY GROUPING SETS ((l_shipdate), (l_shipdate, l_commitdate), " +
			"(l_shipdate, l_commitdate, l_receiptdate), (l_commitdate), (l_returnflag), (l_returnflag, l_linestatus), " +
			"(l_returnflag, l_linestatus, l_shipmode), (l_shipmode))"
}

// TestPlannedKernelsRun runs the seed-1 round without a budget, sequentially
// and in parallel, and checks that the planner's pick is what runs: every
// plan node carries a kernel before execution, and each node's reported
// kernel and group estimate are the ones written on it. The round's picks
// are pinned too: 4 hash and 39 dense, the one node whose estimated input
// differs enough from its actual one — {l_linestatus, l_shipdate,
// l_receiptdate}, read from a temp of 5 040 rows estimated at 7 236 — running
// dense.
func TestPlannedKernelsRun(t *testing.T) {
	li, err := GenerateDataset("lineitem", 100000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []QueryOptions{{}, {Parallel: true, Parallelism: -1}} {
		db := Open(nil)
		db.Register(li)
		kinds := map[string]int{}
		check := func(p *Plan, rep *ExecReport) {
			t.Helper()
			nodes := map[string]*plan.Node{}
			for _, r := range p.Roots {
				r.Walk(func(n *plan.Node) {
					if n.Kernel.Reason == "" {
						t.Errorf("parallel=%v: node %s carries no kernel", o.Parallel, n.Set)
					}
					nodes[n.Set.String()] = n
				})
			}
			for _, ku := range rep.Kernels {
				n := nodes[ku.Node]
				if n == nil {
					t.Fatalf("reported node %s is not in the plan", ku.Node)
				}
				if ku.Kernel != n.Kernel.Kind.String() || ku.EstGroups != n.Kernel.Groups {
					t.Errorf("parallel=%v: %s ran %s est %.0f, plan says %s est %.0f",
						o.Parallel, ku.Node, ku.Kernel, ku.EstGroups, n.Kernel.Kind, n.Kernel.Groups)
				}
				kinds[ku.Kernel]++
			}
		}
		batches, stmt := seedOneRound()
		for _, sets := range batches {
			planned, _, err := db.Optimize("lineitem", sets, o)
			if err != nil {
				t.Fatal(err)
			}
			p, rep, err := db.Execute("lineitem", sets, o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.String(), planned.String(); got != want {
				t.Fatalf("executed plan differs from the explained one:\n%s\nwant\n%s", got, want)
			}
			check(p, rep)
		}
		res, err := db.QueryWith(stmt, o)
		if err != nil {
			t.Fatal(err)
		}
		check(res.Plan, res.Report)
		if kinds["hash"] != 4 || kinds["dense"] != 39 || len(kinds) != 2 {
			t.Errorf("parallel=%v: kernels %v, want hash 4 and dense 39", o.Parallel, kinds)
		}
	}
}
