package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/cost"
	"gbmqo/internal/table"
)

// chaosModel is a deterministic but arbitrary cost model: it makes the
// optimizer chase a meaningless objective, which drives it into diverse,
// deeply nested plan shapes — all of which must still execute to exactly the
// right answers. This is the plan-execution correctness property of the
// DESIGN.md test strategy.
type chaosModel struct {
	calls int
	seed  uint64
}

func (m *chaosModel) Name() string { return "chaos" }
func (m *chaosModel) Calls() int   { return m.calls }
func (m *chaosModel) ResetCalls()  { m.calls = 0 }

func (m *chaosModel) EdgeCost(e cost.Edge) float64 {
	m.calls++
	h := m.seed ^ uint64(e.Parent)*0x9e3779b97f4a7c15 ^ uint64(e.V)*0xbf58476d1ce4e5b9
	if e.ParentIsBase {
		h ^= 0x5555
	}
	if e.Materialize {
		h ^= 0xaaaa
	}
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return float64(h%100_000) + 1
}

func TestQuickRandomPlanShapesExecuteCorrectly(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	// A 6-column table with mixed cardinalities and NULLs.
	tb := table.New("chaos", []table.ColumnDef{
		{Name: "c0", Typ: table.TInt64},
		{Name: "c1", Typ: table.TInt64},
		{Name: "c2", Typ: table.TString},
		{Name: "c3", Typ: table.TInt64},
		{Name: "c4", Typ: table.TDate},
		{Name: "c5", Typ: table.TInt64},
	})
	strs := []string{"p", "q", "r"}
	for i := 0; i < 4000; i++ {
		var c2 table.Value
		if r.Intn(9) == 0 {
			c2 = table.Null(table.TString)
		} else {
			c2 = table.Str(strs[r.Intn(3)])
		}
		tb.AppendRow(
			table.Int(int64(r.Intn(4))),
			table.Int(int64(r.Intn(11))),
			c2,
			table.Int(int64(r.Intn(2))),
			table.Date(int64(r.Intn(30))),
			table.Int(int64(r.Intn(6))),
		)
	}
	e := New(nil)
	e.Catalog().Register(tb)
	env, err := e.CostEnv("chaos")
	if err != nil {
		t.Fatal(err)
	}
	size := e.sizeFn(env, 1)

	// Every plan runs under every combination of the executor's structural
	// knobs, plus a budget tight enough to degrade, and each run must match
	// the reference counts. A NoRetain run must keep no temp table.
	var variants []Request
	for _, shared := range []bool{false, true} {
		for _, parallel := range []bool{false, true} {
			for _, noRetain := range []bool{false, true} {
				variants = append(variants, Request{SharedScan: shared, Parallel: parallel, NoRetain: noRetain})
			}
		}
	}
	variants = append(variants, Request{SharedScan: true, MemBudget: 16 << 10})
	degraded := 0

	for trial := 0; trial < 15; trial++ {
		// Random required sets.
		nq := 3 + r.Intn(4)
		seen := map[colset.Set]bool{}
		var sets []colset.Set
		for len(sets) < nq {
			var s colset.Set
			for s.IsEmpty() {
				for c := 0; c < 6; c++ {
					if r.Intn(3) == 0 {
						s = s.Add(c)
					}
				}
			}
			if !seen[s] {
				seen[s] = true
				sets = append(sets, s)
			}
		}
		model := &chaosModel{seed: uint64(trial)*0x1234567 + 1}
		p, _, err := core.Optimize("chaos", tb.ColNames(), sets, core.Options{Model: model})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(sets); err != nil {
			t.Fatalf("trial %d: invalid plan: %v", trial, err)
		}
		for _, req := range variants {
			report, err := NewExecutor(e.Catalog()).ExecutePlanWith(p, req, size, Hooks{})
			if err != nil {
				t.Fatalf("trial %d, %s: execute: %v\n%s", trial, knobs(req), err, p)
			}
			assertResultsMatch(t, tb, sets, report.Results)
			if req.NoRetain && report.TempTables != 0 {
				t.Errorf("trial %d, %s: kept %d temp tables", trial, knobs(req), report.TempTables)
			}
			if req.MemBudget > 0 {
				degraded += len(report.Degradations)
			}
		}
	}
	if degraded == 0 {
		t.Error("the budgeted runs never degraded; the budget exercises nothing")
	}
}

// knobs names a differential variant's execution knobs.
func knobs(req Request) string {
	return fmt.Sprintf("shared=%t parallel=%t noRetain=%t budget=%d",
		req.SharedScan, req.Parallel, req.NoRetain, req.MemBudget)
}

// TestPlanStorageAccounting verifies the executor records a positive peak
// whenever it retains temp tables, and that dropping is complete (a second
// identical run peaks at the same level, i.e. nothing leaked between runs).
func TestPlanStorageAccounting(t *testing.T) {
	e, _ := newTestEngine(t, 4000)
	sets := scSets()[:8]
	req := Request{Table: "lineitem", Sets: sets, Strategy: StrategyGBMQO}
	first, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.TempTables > 0 && first.Report.PeakTempBytes <= 0 {
		t.Fatal("temp tables retained but no peak recorded")
	}
	second, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.PeakTempBytes != first.Report.PeakTempBytes {
		t.Fatalf("peak drifted between runs: %v then %v (temp leak?)",
			first.Report.PeakTempBytes, second.Report.PeakTempBytes)
	}
}
