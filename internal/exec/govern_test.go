package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemBudgetAccounting(t *testing.T) {
	b := NewMemBudget(100)
	if b.WouldExceed(100) {
		t.Fatal("empty budget rejects a fitting charge")
	}
	if !b.WouldExceed(101) {
		t.Fatal("empty budget admits an oversized charge")
	}
	b.Add(60)
	if got := b.Used(); got != 60 {
		t.Fatalf("Used = %d, want 60", got)
	}
	if !b.WouldExceed(50) {
		t.Fatal("50 on top of 60 fits a 100 budget?")
	}
	b.Add(30)
	b.Release(90)
	if got, pk := b.Used(), b.Peak(); got != 0 || pk != 90 {
		t.Fatalf("Used = %d (want 0), Peak = %d (want 90)", got, pk)
	}
	// Unlimited budget: admission never refuses, accounting still works.
	u := NewMemBudget(0)
	u.Add(1 << 40)
	if u.WouldExceed(1 << 40) {
		t.Fatal("unlimited budget refused a charge")
	}
	if u.Peak() != 1<<40 {
		t.Fatalf("unlimited budget lost the peak: %d", u.Peak())
	}
	// Nil budget: every method is a safe no-op.
	var nb *MemBudget
	nb.Add(10)
	nb.Release(10)
	if nb.WouldExceed(10) || nb.Used() != 0 || nb.Peak() != 0 || nb.Limit() != 0 {
		t.Fatal("nil budget is not inert")
	}
}

func TestMemBudgetConcurrentCharges(t *testing.T) {
	b := NewMemBudget(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Add(3)
				b.Release(3)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("concurrent charges leaked: Used = %d", b.Used())
	}
	if b.Peak() < 3 {
		t.Fatalf("peak never recorded: %d", b.Peak())
	}
}

func TestCancelSequentialHashGroupBy(t *testing.T) {
	tb := mkParTable(3*cancelCheckRows, 900, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gov := NewGov(ctx, nil)
	if _, err := GroupByHashGov(gov, tb, []int{0}, []Agg{CountStar()}, "g"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Budget charges must be fully returned on the cancellation path.
	budget := NewMemBudget(0)
	if _, err := GroupByHashGov(NewGov(ctx, budget), tb, []int{2}, allAggKinds(), "g"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if budget.Used() != 0 {
		t.Fatalf("cancelled run leaked %d budget bytes", budget.Used())
	}
}

func TestCancelSortFallbackGroupBy(t *testing.T) {
	tb := mkParTable(2*cancelCheckRows, 500, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GroupBySortGov(NewGov(ctx, nil), tb, []int{0, 1}, []Agg{CountStar()}, "g"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelParallelMorselDeterministic cancels the context from inside the
// parallel driver via the fault-injection hook, so every worker must observe
// the cancellation at its next block boundary and the operator must return the
// context's error — deterministically, not timing-dependently.
func TestCancelParallelMorselDeterministic(t *testing.T) {
	tb := mkParTable(4*shareMinRows, 1200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	Testing.SetFailPoint(func(site string) {
		if site == "exec.share.worker" && fired.Add(1) == 3 {
			cancel()
		}
	})
	defer Testing.ClearFailPoint()
	budget := NewMemBudget(0)
	_, _, err := sharedScan(NewGov(ctx, budget), tb, []MultiQuery{{GroupCols: []int{2}, Aggs: allAggKinds(), OutName: "g"}}, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if budget.Used() != 0 {
		t.Fatalf("cancelled parallel run leaked %d budget bytes", budget.Used())
	}
}

// TestCancelConcurrentRuns exercises concurrent cancellation under -race:
// several governed parallel aggregations run at once over a shared table
// while their contexts are cancelled from other goroutines. Every run must
// either complete or fail with context.Canceled, and the shared budget must
// drain to zero.
func TestCancelConcurrentRuns(t *testing.T) {
	tb := mkParTable(3*shareMinRows, 800, 4)
	tb.RowImage() // pre-build: lazy construction is not goroutine-safe
	budget := NewMemBudget(0)
	const runs = 6
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = sharedScan(NewGov(ctx, budget), tb, []MultiQuery{{GroupCols: []int{2}, Aggs: allAggKinds(), OutName: "g"}}, 3)
		}(i)
		if i%2 == 0 {
			cancel() // races against the run: both outcomes are legal
		} else {
			defer cancel()
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want nil or context.Canceled", i, err)
		}
	}
	if budget.Used() != 0 {
		t.Fatalf("concurrent runs leaked %d budget bytes", budget.Used())
	}
}

// TestFaultWorkerPanicYieldsExecError injects a panic into one parallel worker
// and requires the operator to survive it, returning a typed *ExecError that
// names the failing worker, with all budget charges released.
func TestFaultWorkerPanicYieldsExecError(t *testing.T) {
	tb := mkParTable(4*shareMinRows, 600, 5)
	var fired atomic.Int64
	Testing.SetFailPoint(func(site string) {
		if site == "exec.share.worker" && fired.Add(1) == 2 {
			panic("injected operator bug")
		}
	})
	defer Testing.ClearFailPoint()
	budget := NewMemBudget(0)
	_, _, err := sharedScan(NewGov(context.Background(), budget), tb, []MultiQuery{{GroupCols: []int{0, 1}, Aggs: allAggKinds(), OutName: "g"}}, 4)
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v (%T), want *ExecError", err, err)
	}
	if ee.Step == "" || ee.Err == nil {
		t.Fatalf("ExecError lacks context: %+v", ee)
	}
	if budget.Used() != 0 {
		t.Fatalf("failed run leaked %d budget bytes", budget.Used())
	}
}

// TestBudgetSortFallbackIdenticalOutput is the operator-level half of the
// degradation guarantee: the sort-based fallback must produce output
// byte-identical to the hash operator — same group order (first appearance),
// same values — for every grouping and aggregate mix.
func TestBudgetSortFallbackIdenticalOutput(t *testing.T) {
	for _, ndv := range []int{4, 700} {
		tb := mkParTable(5000, ndv, 6)
		for _, cols := range [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}} {
			hash := GroupByHash(tb, cols, allAggKinds(), "g")
			srt, err := GroupBySortGov(nil, tb, cols, allAggKinds(), "g")
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, srt, hash)
		}
	}
}

// TestBudgetChargesReleasedAfterRuns verifies the accounting contract: every
// governed operator returns its transient charges when it finishes, and the
// peak reflects the state that was held. Each run has a budget of its own,
// so one run's charge is never read as a rise over another's peak.
func TestBudgetChargesReleasedAfterRuns(t *testing.T) {
	tb := mkParTable(3000, 400, 7)
	runs := []struct {
		name string
		run  func(gov *Gov) error
	}{
		{"hash", func(gov *Gov) error {
			_, err := GroupByHashGov(gov, tb, []int{2}, allAggKinds(), "g")
			return err
		}},
		{"sort", func(gov *Gov) error {
			_, err := GroupBySortGov(gov, tb, []int{2}, allAggKinds(), "g")
			return err
		}},
		{"shared scan", func(gov *Gov) error {
			_, _, err := sharedScan(gov, tb, []MultiQuery{
				{GroupCols: []int{0}, Aggs: []Agg{CountStar()}, OutName: "a"},
				{GroupCols: []int{1, 2}, Aggs: allAggKinds(), OutName: "b"},
			}, 1)
			return err
		}},
	}
	for _, r := range runs {
		budget := NewMemBudget(0)
		if err := r.run(NewGov(nil, budget)); err != nil {
			t.Fatal(err)
		}
		if budget.Used() != 0 {
			t.Errorf("%s run leaked %d bytes", r.name, budget.Used())
		}
		if budget.Peak() == 0 {
			t.Errorf("%s run charged nothing", r.name)
		}
	}
}
