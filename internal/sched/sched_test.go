package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// fakeResult builds a deterministic result for each requested set: one row,
// grouping columns named c<ord> holding the ordinal, aggregate columns
// holding 1.
func fakeResult(sets []colset.Set, perSet map[colset.Set][]exec.Agg) *engine.RunResult {
	rep := &engine.ExecReport{
		Results: map[colset.Set]*table.Table{},
		Origins: map[colset.Set]engine.SetOrigin{},
	}
	for _, s := range sets {
		var defs []table.ColumnDef
		var row []table.Value
		s.ForEach(func(c int) {
			defs = append(defs, table.ColumnDef{Name: fmt.Sprintf("c%d", c), Typ: table.TInt64})
			row = append(row, table.Int(int64(c)))
		})
		for _, a := range perSet[s] {
			defs = append(defs, table.ColumnDef{Name: a.Name, Typ: table.TInt64})
			row = append(row, table.Int(1))
		}
		t := table.New("res", defs)
		t.AppendRow(row...)
		rep.Results[s] = t
		rep.Origins[s] = engine.OriginComputed
	}
	return &engine.RunResult{
		Report:      rep,
		Search:      core.SearchStats{NaiveCost: 100},
		PlanCostSeq: 40,
	}
}

// countingRunner counts calls and optionally blocks until released or until
// the run's context ends, as the engine stops at its next checkpoint.
type countingRunner struct {
	calls atomic.Int32
	block chan struct{} // nil = don't block
	ctxCh chan context.Context
}

func (r *countingRunner) run(ctx context.Context, tbl string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
	r.calls.Add(1)
	if r.ctxCh != nil {
		r.ctxCh <- ctx
	}
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fakeResult(sets, perSet), nil
}

func cnt() []exec.Agg { return []exec.Agg{exec.CountStar()} }

// q is a COUNT(*) query grouping column c of table "t".
func q(c int) Query { return Query{Table: "t", Set: colset.Of(c), Aggs: cnt()} }

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 5000 {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPageOfMissesRunsOnce: a page of k distinct misses makes exactly one
// engine run carrying all k sets, started without a timer, and every answer
// reports the run's k queries.
func TestPageOfMissesRunsOnce(t *testing.T) {
	var runs [][]colset.Set
	var mu sync.Mutex
	run := func(ctx context.Context, tbl string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		mu.Lock()
		runs = append(runs, sets)
		mu.Unlock()
		return fakeResult(sets, perSet), nil
	}
	b := New(run, Config{})
	defer b.Close()
	const k = 5
	page := make([]Query, k)
	for i := range page {
		page[i] = q(i)
	}
	for i, a := range b.SubmitPage(nil, page) {
		if a.Err != nil || a.Table == nil || a.Table.ColIndex(fmt.Sprintf("c%d", i)) != 0 {
			t.Fatalf("answer %d = %+v", i, a)
		}
		if a.Info.BatchQueries != k || a.Info.BatchRequests != k || a.Info.Deduped || a.Info.Origin != engine.OriginComputed {
			t.Fatalf("answer %d info = %+v, want one run of %d queries", i, a.Info, k)
		}
		if a.Info.PlanCostShared != 40 || a.Info.PlanCostSolo != 100 {
			t.Fatalf("answer %d plan costs = %v/%v", i, a.Info.PlanCostShared, a.Info.PlanCostSolo)
		}
	}
	if len(runs) != 1 || len(runs[0]) != k {
		t.Fatalf("runs = %v, want one run of %d sets", runs, k)
	}
	for i, s := range runs[0] {
		if s != colset.Of(i) {
			t.Fatalf("run sets = %v, want page order", runs[0])
		}
	}
	if st := b.Stats(); st.Batches != 1 || st.Submitted != k || st.QueueLen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDedupIdenticalQueries: identical queries within a page share one
// computation and one result table; every one after the first is Deduped.
func TestDedupIdenticalQueries(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{})
	defer b.Close()
	out := b.SubmitPage(nil, []Query{q(3), q(4), q(3)})
	for i, a := range out {
		if a.Err != nil {
			t.Fatalf("answer %d: %v", i, a.Err)
		}
		if a.Info.BatchQueries != 2 || a.Info.BatchRequests != 3 || a.Info.Deduped != (i == 2) {
			t.Fatalf("answer %d info = %+v", i, a.Info)
		}
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("runner called %d times, want 1", got)
	}
	if out[0].Table != out[2].Table {
		t.Fatal("identical queries did not share one result table")
	}
	if st := b.Stats(); st.Deduped != 1 || st.Submitted != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPerRequestCancellationLeavesBatchRunning: one caller's cancellation
// stops that caller's run and leaves another caller's run running.
func TestPerRequestCancellationLeavesBatchRunning(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	okB := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, q(0))
		errA <- err
	}()
	go func() {
		out, _, err := b.Submit(nil, q(1))
		if err == nil && out.NumRows() != 1 {
			err = errors.New("bad result")
		}
		okB <- err
	}()
	waitFor(t, "both runs to start", func() bool { return r.calls.Load() == 2 })
	cancel()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submitter got %v, want context.Canceled", err)
	}
	close(r.block)
	if err := <-okB; err != nil {
		t.Fatalf("surviving submitter: %v", err)
	}
	if st := b.Stats(); st.Abandoned != 1 {
		t.Fatalf("stats.Abandoned = %d", st.Abandoned)
	}
}

// TestAllAbandonedCancelsBatch: a page whose context ends mid-run stops its
// run at the run's next checkpoint — no orphaned work — and answers ctx.Err()
// on every query, counted abandoned, with nothing left in flight.
func TestAllAbandonedCancelsBatch(t *testing.T) {
	r := &countingRunner{block: make(chan struct{}), ctxCh: make(chan context.Context, 1)}
	b := New(r.run, Config{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	page := make(chan []Answer, 1)
	go func() { page <- b.SubmitPage(ctx, []Query{q(0), q(1), q(0)}) }()
	<-r.ctxCh // run started, runner blocked
	cancel()
	for i, a := range <-page {
		if !errors.Is(a.Err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, a.Err)
		}
	}
	if st := b.Stats(); st.Abandoned != 3 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v, want every query abandoned and none in flight", st)
	}
}

// TestCompletedRunDeliversAfterCancel: a run that completed before its
// caller looked delivers its answers even though the context has ended.
func TestCompletedRunDeliversAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	run := func(_ context.Context, tbl string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		cancel()
		return fakeResult(sets, perSet), nil
	}
	b := New(run, Config{})
	defer b.Close()
	for i, a := range b.SubmitPage(ctx, []Query{q(0), q(1)}) {
		if a.Err != nil || a.Table == nil {
			t.Fatalf("query %d: %+v, want the completed run's answer", i, a)
		}
	}
	if st := b.Stats(); st.Abandoned != 0 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// expiresAtAdmission is a cancelled context whose first Err call reports
// nil, so SubmitPage's up-front context check passes and the page reaches
// its run with Done already closed: the context ended before the run
// started.
type expiresAtAdmission struct {
	context.Context
	reads atomic.Int32
}

func (c *expiresAtAdmission) Err() error {
	if c.reads.Add(1) == 1 {
		return nil
	}
	return c.Context.Err()
}

// TestAbandonedBeforeRunStarts: a caller whose context expires between the
// up-front check and the run gets ctx.Err() on every query from the run's
// first checkpoint, without fault, and nothing stays in flight.
func TestAbandonedBeforeRunStarts(t *testing.T) {
	run := func(ctx context.Context, tbl string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return fakeResult(sets, perSet), nil
	}
	b := New(run, Config{})
	defer b.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for n := 0; n < 50; n++ {
		out := b.SubmitPage(&expiresAtAdmission{Context: cancelled}, []Query{q(0), q(1), q(0)})
		for i, a := range out {
			if !errors.Is(a.Err, context.Canceled) {
				t.Fatalf("round %d query %d: err = %v, want context.Canceled", n, i, a.Err)
			}
		}
	}
	if st := b.Stats(); st.Panics != 0 || st.QueueLen != 0 || st.Abandoned != 150 {
		t.Fatalf("stats = %+v, want no panic, nothing in flight, 150 abandoned", st)
	}
}

// TestQueueBackpressure: MaxQueue bounds the queries in flight; a request
// past it fails fast with an *OverloadError, and admission resumes once the
// run in flight finishes.
func TestQueueBackpressure(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{MaxQueue: 2})
	defer b.Close()
	done := make(chan []Answer, 1)
	go func() { done <- b.SubmitPage(nil, []Query{q(0), q(1)}) }()
	waitFor(t, "two queries in flight", func() bool { return b.Stats().QueueLen == 2 })
	_, _, err := b.Submit(nil, q(2))
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want an *OverloadError matching ErrQueueFull", err)
	}
	if oe.QueueLen != 2 || oe.Limit != 2 || oe.RetryAfter < time.Millisecond {
		t.Fatalf("OverloadError = %+v", oe)
	}
	// A page that overflows the bound answers the overflow and runs the rest.
	close(r.block)
	for i, a := range <-done {
		if a.Err != nil {
			t.Fatalf("in-flight answer %d: %v", i, a.Err)
		}
	}
	r.block = nil
	out := b.SubmitPage(nil, []Query{q(3), q(4), q(5)})
	if out[0].Err != nil || out[1].Err != nil || !errors.Is(out[2].Err, ErrQueueFull) {
		t.Fatalf("page past the bound = %v, %v, %v; want two answers and one rejection", out[0].Err, out[1].Err, out[2].Err)
	}
	if st := b.Stats(); st.Rejected != 2 || st.Shed != 0 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSecondAggListRunsAsFollowUp: a set asked under two aggregate lists
// runs once per list — every run asks a set under one list, so each answer
// is its run's result with exactly its own columns — while the other sets
// ride the first run.
func TestSecondAggListRunsAsFollowUp(t *testing.T) {
	var mu sync.Mutex
	var runs []map[colset.Set][]exec.Agg
	run := func(ctx context.Context, tbl string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		mu.Lock()
		runs = append(runs, perSet)
		mu.Unlock()
		return fakeResult(sets, perSet), nil
	}
	b := New(run, Config{})
	defer b.Close()
	set := colset.Of(2)
	qa := Query{Table: "t", Set: set, Aggs: []exec.Agg{exec.CountStar()}}
	qb := Query{Table: "t", Set: set, Aggs: []exec.Agg{{Kind: exec.AggSum, Col: 5, Name: "sum_x"}}}
	out := b.SubmitPage(nil, []Query{qa, q(3), qb})
	if len(runs) != 2 || len(runs[0]) != 2 || len(runs[1]) != 1 || len(runs[1][set]) != 1 {
		t.Fatalf("runs = %v, want the page run of two sets and one follow-up of the second list", runs)
	}
	ta, tb := out[0].Table, out[2].Table
	if ta == nil || tb == nil || out[1].Err != nil {
		t.Fatalf("missing results: %v, %v, %v", out[0].Err, out[1].Err, out[2].Err)
	}
	if ta.NumCols() != 2 || ta.ColIndex("cnt") < 0 || ta.ColIndex("sum_x") >= 0 {
		t.Fatalf("qa columns = %v, want [c2 cnt]", ta.ColNames())
	}
	if tb.NumCols() != 2 || tb.ColIndex("sum_x") < 0 || tb.ColIndex("cnt") >= 0 {
		t.Fatalf("qb columns = %v, want [c2 sum_x]", tb.ColNames())
	}
	if st := b.Stats(); st.Batches != 1 || st.FollowUps != 1 {
		t.Fatalf("stats = %+v, want one page run with one follow-up", st)
	}
}

func TestAggregateNameConflictRunsSolo(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{})
	defer b.Close()
	set := colset.Of(1)
	// Same output name "v", different aggregate: the second list runs in a
	// follow-up, as every second list of a set does.
	qa := Query{Table: "t", Set: set, Aggs: []exec.Agg{{Kind: exec.AggMin, Col: 3, Name: "v"}}}
	qb := Query{Table: "t", Set: set, Aggs: []exec.Agg{{Kind: exec.AggMax, Col: 3, Name: "v"}}}
	for i, a := range b.SubmitPage(nil, []Query{qa, qb}) {
		if a.Err != nil {
			t.Fatalf("submit %d: %v", i, a.Err)
		}
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2 (page run + follow-up)", got)
	}
	if st := b.Stats(); st.FollowUps != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunnerErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	run := func(context.Context, string, []colset.Set, map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		return nil, boom
	}
	b := New(run, Config{})
	defer b.Close()
	for i, a := range b.SubmitPage(nil, []Query{q(0), q(1)}) {
		if !errors.Is(a.Err, boom) {
			t.Errorf("submit %d: %v, want boom", i, a.Err)
		}
	}
}

// TestSeparateTablesSeparateWindows: requests over different tables run
// separately, and one page cannot mix tables.
func TestSeparateTablesSeparateWindows(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{})
	defer b.Close()
	for i, tbl := range []string{"a", "b"} {
		if _, _, err := b.Submit(nil, Query{Table: tbl, Set: colset.Of(i), Aggs: cnt()}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2 (one per table)", got)
	}
	out := b.SubmitPage(nil, []Query{{Table: "a", Set: colset.Of(0), Aggs: cnt()}, {Table: "b", Set: colset.Of(0), Aggs: cnt()}})
	if out[0].Err != nil || out[1].Err == nil {
		t.Fatalf("mixed page = %v, %v; want the second table refused", out[0].Err, out[1].Err)
	}
}

func TestCloseRejectsSubmissions(t *testing.T) {
	b := New((&countingRunner{}).run, Config{})
	b.Close()
	_, _, err := b.Submit(nil, q(0))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	b := New((&countingRunner{}).run, Config{})
	defer b.Close()
	cases := []Query{
		{Table: "", Set: colset.Of(0), Aggs: cnt()},
		{Table: "t", Aggs: cnt()},
		{Table: "t", Set: colset.Of(0)},
		{Table: "t", Set: colset.Of(0), Aggs: []exec.Agg{exec.CountStar(), exec.CountStar()}},
	}
	for i, q := range cases {
		if _, _, err := b.Submit(nil, q); err == nil {
			t.Errorf("case %d accepted: %+v", i, q)
		}
	}
}

// TestSchedDispatchPanicContainment injects a panic at the sched.run fault
// site and checks the run boundary contains it: every query of the page
// receives ErrBatchAborted (nobody hangs), the panic is counted, and the
// batcher keeps serving afterwards.
func TestSchedDispatchPanicContainment(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{})
	defer b.Close()
	exec.Testing.SetFailPoint(func(site string) {
		if site == "sched.run" {
			panic("run bomb")
		}
	})
	out := b.SubmitPage(nil, []Query{q(0), q(1), q(0)})
	exec.Testing.ClearFailPoint()
	for i, a := range out {
		if !errors.Is(a.Err, ErrBatchAborted) {
			t.Fatalf("query %d: err = %v, want ErrBatchAborted", i, a.Err)
		}
	}
	if st := b.Stats(); st.Panics != 1 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v, want 1 panic and nothing in flight", st)
	}
	if r.calls.Load() != 0 {
		t.Fatalf("runner ran despite pre-run panic")
	}
	// The batcher survives: the next page runs normally.
	if out, _, err := b.Submit(nil, q(0)); err != nil || out == nil {
		t.Fatalf("submit after contained panic: %v", err)
	}
}

// TestSchedDrainFlushesAndRejects checks graceful drain: Drain waits for the
// run in flight, which still answers its caller, and later submissions get
// ErrClosed.
func TestSchedDrainFlushesAndRejects(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{})
	resc := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(nil, q(1))
		resc <- err
	}()
	waitFor(t, "the run to start", func() bool { return r.calls.Load() == 1 })
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- b.Drain(ctx)
	}()
	waitFor(t, "Drain to begin", b.Draining)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a run in flight", err)
	case <-time.After(10 * time.Millisecond):
	}
	close(r.block)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-resc; err != nil {
		t.Fatalf("in-flight submission during drain: %v", err)
	}
	if _, _, err := b.Submit(nil, q(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v, want ErrClosed", err)
	}
}

// TestSchedDrainRejectsWhileDraining checks a submission arriving mid-drain
// (a run still in flight) gets ErrDraining, and a deadline that expires
// before the drain completes surfaces the context error.
func TestSchedDrainRejectsWhileDraining(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{})
	resc := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(nil, q(1))
		resc <- err
	}()
	waitFor(t, "the run to start", func() bool { return r.calls.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := b.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck run = %v, want DeadlineExceeded", err)
	}
	if !b.Draining() {
		t.Fatal("Draining() = false during drain")
	}
	if _, _, err := b.Submit(nil, q(2)); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining/ErrClosed", err)
	}
	// Release the stuck run; the original submitter still gets its answer.
	close(r.block)
	if err := <-resc; err != nil {
		t.Fatalf("submitter after late drain: %v", err)
	}
}

// TestSchedAdaptiveShedBound checks the p95-driven admission bound: with the
// recent p95 over the target, the effective limit shrinks below MaxQueue and
// rejections carry an *OverloadError with a Retry-After hint while still
// matching ErrQueueFull.
func TestSchedAdaptiveShedBound(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{MaxQueue: 100, ShedLatencyTarget: time.Millisecond})
	defer b.Close()
	// Publish a recent p95 of 20ms: limit = 100·1ms/20ms = 5.
	b.p95ns.Store(int64(20 * time.Millisecond))

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.SubmitPage(nil, []Query{q(0), q(1), q(2), q(3), q(4)})
	}()
	waitFor(t, "five queries in flight", func() bool { return b.Stats().QueueLen == 5 })
	_, _, err := b.Submit(nil, Query{Table: "v", Set: colset.Of(9), Aggs: cnt()})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("OverloadError must match ErrQueueFull")
	}
	if oe.Limit != 5 || oe.QueueLen != 5 {
		t.Fatalf("OverloadError = %+v, want limit 5 at queue 5", oe)
	}
	if oe.RetryAfter < 20*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ≥ recent p95", oe.RetryAfter)
	}
	if st := b.Stats(); st.Shed != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 shed rejection", st)
	}
	close(r.block)
	<-done
	// However slow the backend, the bound never falls below one query.
	b.p95ns.Store(int64(time.Hour))
	r.block = nil
	if _, _, err := b.Submit(nil, q(0)); err != nil {
		t.Fatalf("lone submit under a floored bound: %v", err)
	}
}

// TestSchedLatencyFeedsShedding checks a run feeds the shedding ring: a
// slow run raises the published p95.
func TestSchedLatencyFeedsShedding(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{ShedLatencyTarget: time.Millisecond})
	defer b.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(r.block)
	}()
	if _, _, err := b.Submit(nil, q(1)); err != nil {
		t.Fatal(err)
	}
	// The run publishes its latency after answering, so the submitter can
	// return first: wait for the publication, not for a clock.
	for i := 0; b.p95ns.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if p95 := time.Duration(b.p95ns.Load()); p95 < 20*time.Millisecond {
		t.Fatalf("published p95 = %v after a ~30ms run", p95)
	}
}

// perQuery lifts a one-query probe to a page probe: it asks each query in
// turn and fails the page on the first error.
func perQuery(f func(context.Context, Query) (*table.Table, engine.SetOrigin, error)) ProbeFunc {
	return func(ctx context.Context, qs []Query) ([]engine.Probed, error) {
		out := make([]engine.Probed, len(qs))
		for i, q := range qs {
			t, origin, err := f(ctx, q)
			if err != nil {
				return nil, err
			}
			out[i] = engine.Probed{Table: t, Origin: origin}
		}
		return out, nil
	}
}

// TestProbeAnswersBeforeTheWindow: a probe answer returns at once, before
// any run, with the probe's origin; it counts as a submission and never
// occupies the in-flight bound — a full bound does not refuse it.
func TestProbeAnswersBeforeTheWindow(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	hit := fakeResult([]colset.Set{colset.Of(0)}, map[colset.Set][]exec.Agg{colset.Of(0): cnt()}).Report.Results[colset.Of(0)]
	probe := perQuery(func(_ context.Context, q Query) (*table.Table, engine.SetOrigin, error) {
		if q.Set == colset.Of(0) {
			return hit, engine.OriginCacheHit, nil
		}
		return nil, engine.OriginComputed, nil
	})
	b := New(r.run, Config{MaxQueue: 1}, probe)
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()})
	}()
	waitFor(t, "the miss to run", func() bool { return b.Stats().QueueLen == 1 })
	got, info, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
	if err != nil || got != hit {
		t.Fatalf("probe answer = %v, %v; want the probe's table", got, err)
	}
	want := BatchInfo{BatchQueries: 1, BatchRequests: 1, Origin: engine.OriginCacheHit}
	if info != want {
		t.Fatalf("info = %+v, want %+v", info, want)
	}
	close(r.block)
	<-done
	st := b.Stats()
	if st.Submitted != 2 || st.ProbeAnswers != 1 || st.Batches != 1 || r.calls.Load() != 1 {
		t.Fatalf("stats = %+v, runs %d; want 2 submitted, 1 probe answer, 1 run", st, r.calls.Load())
	}
}

// TestProbeFaultEntersTheWindow: a probe that panics, fails, or hits a
// failpoint costs the request its shortcut, never its answer: it runs.
func TestProbeFaultEntersTheWindow(t *testing.T) {
	for name, probe := range map[string]ProbeFunc{
		"panic": perQuery(func(context.Context, Query) (*table.Table, engine.SetOrigin, error) { panic("probe bug") }),
		"error": perQuery(func(context.Context, Query) (*table.Table, engine.SetOrigin, error) {
			return nil, engine.OriginComputed, errors.New("probe failed")
		}),
		"failpoint": perQuery(func(context.Context, Query) (*table.Table, engine.SetOrigin, error) {
			t.Error("probe ran through an armed failpoint")
			return nil, engine.OriginComputed, nil
		}),
	} {
		t.Run(name, func(t *testing.T) {
			if name == "failpoint" {
				exec.Testing.SetFailPoint(func(site string) {
					if site == "sched.probe" {
						panic("injected")
					}
				})
				defer exec.Testing.ClearFailPoint()
			}
			r := &countingRunner{}
			b := New(r.run, Config{}, probe)
			defer b.Close()
			res, info, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(2), Aggs: cnt()})
			if err != nil || res == nil {
				t.Fatalf("submit after a probe fault = %v, %v", res, err)
			}
			if info.Origin != engine.OriginComputed || r.calls.Load() != 1 {
				t.Fatalf("info %+v after %d runs; want the run's answer", info, r.calls.Load())
			}
			if st := b.Stats(); st.Submitted != 1 || st.ProbeAnswers != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestProbeContextErrorReturns: when the caller's own context ends during
// the probe, Submit returns that error rather than running dead work.
func TestProbeContextErrorReturns(t *testing.T) {
	r := &countingRunner{}
	ctx, cancel := context.WithCancel(context.Background())
	probe := perQuery(func(ctx context.Context, _ Query) (*table.Table, engine.SetOrigin, error) {
		cancel()
		return nil, engine.OriginComputed, ctx.Err()
	})
	b := New(r.run, Config{}, probe)
	defer b.Close()
	if _, _, err := b.Submit(ctx, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := b.Stats(); st.Submitted != 0 || r.calls.Load() != 0 {
		t.Fatalf("stats = %+v after %d runs; want nothing admitted", st, r.calls.Load())
	}
}

// TestProbeSkippedAfterClose: a closed batcher refuses before probing.
func TestProbeSkippedAfterClose(t *testing.T) {
	probe := perQuery(func(context.Context, Query) (*table.Table, engine.SetOrigin, error) {
		t.Error("probe ran on a closed batcher")
		return nil, engine.OriginComputed, nil
	})
	b := New((&countingRunner{}).run, Config{}, probe)
	b.Close()
	if _, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}
