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

// countingRunner counts calls and optionally blocks until released or the
// batch context dies.
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

func TestWindowClosesWhenFull(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 2, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	var wg sync.WaitGroup
	infos := make([]BatchInfo, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, info, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(i), Aggs: cnt()})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if out.NumRows() != 1 {
				t.Errorf("submit %d: %d rows", i, out.NumRows())
			}
			infos[i] = info
		}(i)
	}
	wg.Wait()
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("runner called %d times, want 1 (batched)", got)
	}
	for i, info := range infos {
		if info.BatchQueries != 2 {
			t.Fatalf("info %d: BatchQueries = %d, want 2", i, info.BatchQueries)
		}
	}
	st := b.Stats()
	if st.Batches != 1 || st.Submitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDedupIdenticalQueries(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 64, MaxWait: 20 * time.Millisecond, IdleWait: 10 * time.Millisecond})
	defer b.Close()
	q := Query{Table: "t", Set: colset.Of(3), Aggs: cnt()}
	var wg sync.WaitGroup
	outs := make([]*table.Table, 2)
	deduped := 0
	var mu sync.Mutex
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, info, err := b.Submit(nil, q)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			mu.Lock()
			outs[i] = out
			if info.Deduped {
				deduped++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("runner called %d times, want 1", got)
	}
	if outs[0] != outs[1] {
		t.Fatal("identical queries did not share one result table")
	}
	if deduped != 1 {
		t.Fatalf("deduped = %d, want exactly 1 (the second arrival)", deduped)
	}
	if st := b.Stats(); st.Deduped != 1 {
		t.Fatalf("stats.Deduped = %d", st.Deduped)
	}
}

func TestIdleFlushBeatsDeadline(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 64, MaxWait: 5 * time.Second, IdleWait: 10 * time.Millisecond})
	defer b.Close()
	start := time.Now()
	_, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle flush took %v; the 5s deadline must not gate a lone request", elapsed)
	}
}

func TestDeadlineFlush(t *testing.T) {
	r := &countingRunner{}
	// IdleWait == MaxWait: only the deadline can fire.
	b := New(r.run, Config{MaxBatch: 64, MaxWait: 15 * time.Millisecond, IdleWait: 15 * time.Millisecond})
	defer b.Close()
	if _, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()}); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerRequestCancellationLeavesBatchRunning(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{MaxBatch: 2, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	okB := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
		errA <- err
	}()
	time.Sleep(5 * time.Millisecond)
	go func() {
		out, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()})
		if err == nil && out.NumRows() != 1 {
			err = errors.New("bad result")
		}
		okB <- err
	}()
	// Window is full → dispatched; the runner is blocked. Cancel A only.
	cancel()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submitter got %v, want context.Canceled", err)
	}
	// B must still complete once the runner unblocks.
	close(r.block)
	if err := <-okB; err != nil {
		t.Fatalf("surviving submitter: %v", err)
	}
	if st := b.Stats(); st.Abandoned != 1 {
		t.Fatalf("stats.Abandoned = %d", st.Abandoned)
	}
}

func TestAllAbandonedCancelsBatch(t *testing.T) {
	r := &countingRunner{block: make(chan struct{}), ctxCh: make(chan context.Context, 1)}
	b := New(r.run, Config{MaxBatch: 1, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
		errA <- err
	}()
	bctx := <-r.ctxCh // batch dispatched, runner blocked
	cancel()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	select {
	case <-bctx.Done():
		// Batch context cancelled once its only subscriber left: no orphans.
	case <-time.After(2 * time.Second):
		t.Fatal("batch context not cancelled after all subscribers abandoned")
	}
}

func TestQueueBackpressure(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 64, MaxWait: time.Hour, IdleWait: time.Hour, MaxQueue: 1})
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
	}()
	// Wait until the first submission is queued.
	for i := 0; i < 200; i++ {
		if b.Stats().QueueLen == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	b.Flush()
	<-done
}

func TestAggregateMergeAndProjection(t *testing.T) {
	var sawAggs atomic.Int32
	run := func(ctx context.Context, tbl string, sets []colset.Set, perSet map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		if len(sets) == 1 {
			sawAggs.Store(int32(len(perSet[sets[0]])))
		}
		return fakeResult(sets, perSet), nil
	}
	b := New(run, Config{MaxBatch: 2, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	set := colset.Of(2)
	qa := Query{Table: "t", Set: set, Aggs: []exec.Agg{exec.CountStar()}}
	qb := Query{Table: "t", Set: set, Aggs: []exec.Agg{{Kind: exec.AggSum, Col: 5, Name: "sum_x"}}}
	var wg sync.WaitGroup
	var ta, tb *table.Table
	wg.Add(2)
	go func() { defer wg.Done(); ta, _, _ = b.Submit(nil, qa) }()
	time.Sleep(5 * time.Millisecond) // qa first: deterministic merge order
	go func() { defer wg.Done(); tb, _, _ = b.Submit(nil, qb) }()
	wg.Wait()
	// Same set + compatible names = one group per aggsig but a single merged
	// run carrying both aggregates; MaxBatch counts distinct (set, aggs)
	// groups, so the window closed as full with two groups.
	if got := sawAggs.Load(); got != 2 {
		t.Fatalf("merged run saw %d aggs, want 2 (union)", got)
	}
	if ta == nil || tb == nil {
		t.Fatal("missing results")
	}
	if ta.NumCols() != 2 || ta.ColIndex("cnt") < 0 || ta.ColIndex("sum_x") >= 0 {
		t.Fatalf("qa columns = %v, want [c2 cnt]", ta.ColNames())
	}
	if tb.NumCols() != 2 || tb.ColIndex("sum_x") < 0 || tb.ColIndex("cnt") >= 0 {
		t.Fatalf("qb columns = %v, want [c2 sum_x]", tb.ColNames())
	}
}

func TestAggregateNameConflictRunsSolo(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 2, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	set := colset.Of(1)
	// Same output name "v", different aggregate: cannot share one result
	// schema — the second group must run on its own.
	qa := Query{Table: "t", Set: set, Aggs: []exec.Agg{{Kind: exec.AggMin, Col: 3, Name: "v"}}}
	qb := Query{Table: "t", Set: set, Aggs: []exec.Agg{{Kind: exec.AggMax, Col: 3, Name: "v"}}}
	var wg sync.WaitGroup
	wg.Add(2)
	var errs [2]error
	go func() { defer wg.Done(); _, _, errs[0] = b.Submit(nil, qa) }()
	time.Sleep(5 * time.Millisecond)
	go func() { defer wg.Done(); _, _, errs[1] = b.Submit(nil, qb) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2 (main batch + conflict solo)", got)
	}
	if st := b.Stats(); st.Conflicts != 1 {
		t.Fatalf("stats.Conflicts = %d", st.Conflicts)
	}
}

func TestRunnerErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	run := func(context.Context, string, []colset.Set, map[colset.Set][]exec.Agg) (*engine.RunResult, error) {
		return nil, boom
	}
	b := New(run, Config{MaxBatch: 2, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(i), Aggs: cnt()})
			if !errors.Is(err, boom) {
				t.Errorf("submit %d: %v, want boom", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestSeparateTablesSeparateWindows(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 1, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	for i, tbl := range []string{"a", "b"} {
		if _, _, err := b.Submit(nil, Query{Table: tbl, Set: colset.Of(i), Aggs: cnt()}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2 (one per table)", got)
	}
}

func TestCloseRejectsSubmissions(t *testing.T) {
	b := New((&countingRunner{}).run, Config{})
	b.Close()
	_, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
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

// TestSchedDispatchPanicContainment injects a panic at the sched.window.close
// fault site and checks the dispatch boundary contains it: every subscriber
// receives ErrBatchAborted (nobody hangs), the panic is counted, and the
// batcher keeps serving afterwards.
func TestSchedDispatchPanicContainment(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 2, MaxWait: time.Hour, IdleWait: time.Hour})
	defer b.Close()
	exec.Testing.SetFailPoint(func(site string) {
		if site == "sched.window.close" {
			panic("dispatch bomb")
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.Submit(nil, Query{Table: "t", Set: colset.Of(i), Aggs: cnt()})
		}(i)
	}
	wg.Wait()
	exec.Testing.ClearFailPoint()
	for i, err := range errs {
		if !errors.Is(err, ErrBatchAborted) {
			t.Fatalf("submitter %d: err = %v, want ErrBatchAborted", i, err)
		}
	}
	if st := b.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v, want 1 panic", st)
	}
	if r.calls.Load() != 0 {
		t.Fatalf("runner ran despite pre-run panic")
	}
	// The batcher survives: the next window runs normally.
	var out *table.Table
	var err error
	var after sync.WaitGroup
	for i := 0; i < 2; i++ {
		after.Add(1)
		go func(i int) {
			defer after.Done()
			o, _, e := b.Submit(nil, Query{Table: "t", Set: colset.Of(i), Aggs: cnt()})
			if i == 0 {
				out, err = o, e
			}
		}(i)
	}
	after.Wait()
	if err != nil || out == nil {
		t.Fatalf("submit after contained panic: %v", err)
	}
}

// TestSchedDrainFlushesAndRejects checks graceful drain: pending submissions
// in open windows are flushed and answered, concurrent and later submissions
// get ErrDraining, and Drain returns nil once everything delivered.
func TestSchedDrainFlushesAndRejects(t *testing.T) {
	r := &countingRunner{}
	b := New(r.run, Config{MaxBatch: 64, MaxWait: time.Hour, IdleWait: time.Hour})
	resc := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()})
		resc <- err
	}()
	// Wait for the submission to sit in an open window.
	for i := 0; ; i++ {
		if st := b.Stats(); st.QueueLen == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("submission never queued")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-resc; err != nil {
		t.Fatalf("in-flight submission during drain: %v", err)
	}
	if _, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(2), Aggs: cnt()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v, want ErrClosed", err)
	}
}

// TestSchedDrainRejectsWhileDraining checks a submission arriving mid-drain
// (batches still in flight) gets ErrDraining, and a deadline that expires
// before the drain completes surfaces the context error.
func TestSchedDrainRejectsWhileDraining(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{MaxBatch: 1, MaxWait: time.Hour, IdleWait: time.Hour})
	resc := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()})
		resc <- err
	}()
	// MaxBatch=1 dispatches immediately; wait for the runner to be inside run.
	for i := 0; r.calls.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("batch never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := b.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck batch = %v, want DeadlineExceeded", err)
	}
	if !b.Draining() {
		t.Fatal("Draining() = false during drain")
	}
	if _, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(2), Aggs: cnt()}); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining/ErrClosed", err)
	}
	// Release the stuck batch; the original submitter still gets its answer.
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
	r := &countingRunner{}
	b := New(r.run, Config{
		MaxBatch:          4,
		MaxWait:           time.Hour,
		IdleWait:          time.Hour,
		MaxQueue:          100,
		ShedLatencyTarget: time.Millisecond,
	})
	defer b.Close()
	// Publish a recent p95 of 20ms: limit = 100·1ms/20ms = 5.
	b.p95ns.Store(int64(20 * time.Millisecond))

	// MaxBatch=4 would close the window at 4 distinct queries, so spread 5
	// queued submissions over two tables to keep both windows open.
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		tbl := "t"
		if i >= 3 {
			tbl = "u"
		}
		go func(i int, tbl string) {
			defer wg.Done()
			b.Submit(nil, Query{Table: tbl, Set: colset.Of(i % 3), Aggs: cnt()})
		}(i, tbl)
	}
	for i := 0; ; i++ {
		if st := b.Stats(); st.QueueLen == 5 {
			break
		}
		if i > 1000 {
			t.Fatalf("queue never reached 5: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
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
	b.Flush()
	wg.Wait()
}

// TestSchedLatencyFeedsShedding checks dispatch feeds the latency window: a
// slow batch raises the published p95.
func TestSchedLatencyFeedsShedding(t *testing.T) {
	r := &countingRunner{block: make(chan struct{})}
	b := New(r.run, Config{MaxBatch: 1, MaxWait: time.Hour, IdleWait: time.Hour, ShedLatencyTarget: time.Millisecond})
	defer b.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(r.block)
	}()
	if _, _, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()}); err != nil {
		t.Fatal(err)
	}
	// Dispatch publishes the latency after delivering, so the submitter can
	// return first: wait for the publication, not for a clock.
	for i := 0; b.p95ns.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if p95 := time.Duration(b.p95ns.Load()); p95 < 20*time.Millisecond {
		t.Fatalf("published p95 = %v after a ~30ms batch", p95)
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

// TestProbeAnswersBeforeTheWindow: a probe answer returns at once with the
// probe's origin, counts as a submission, and never occupies the queue — a
// full queue does not refuse it.
func TestProbeAnswersBeforeTheWindow(t *testing.T) {
	r := &countingRunner{}
	hit := fakeResult([]colset.Set{colset.Of(0)}, map[colset.Set][]exec.Agg{colset.Of(0): cnt()}).Report.Results[colset.Of(0)]
	probe := perQuery(func(_ context.Context, q Query) (*table.Table, engine.SetOrigin, error) {
		if q.Set == colset.Of(0) {
			return hit, engine.OriginCacheHit, nil
		}
		return nil, engine.OriginComputed, nil
	})
	b := New(r.run, Config{MaxBatch: 64, MaxWait: time.Hour, IdleWait: time.Hour, MaxQueue: 1}, probe)
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Submit(nil, Query{Table: "t", Set: colset.Of(1), Aggs: cnt()})
	}()
	for i := 0; b.Stats().QueueLen != 1; i++ {
		if i > 1000 {
			t.Fatal("miss never queued")
		}
		time.Sleep(time.Millisecond)
	}
	got, info, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(0), Aggs: cnt()})
	if err != nil || got != hit {
		t.Fatalf("probe answer = %v, %v; want the probe's table", got, err)
	}
	want := BatchInfo{BatchQueries: 1, BatchRequests: 1, Origin: engine.OriginCacheHit}
	if info != want {
		t.Fatalf("info = %+v, want %+v", info, want)
	}
	b.Flush()
	<-done
	st := b.Stats()
	if st.Submitted != 2 || st.ProbeAnswers != 1 || st.Batches != 1 || r.calls.Load() != 1 {
		t.Fatalf("stats = %+v, runs %d; want 2 submitted, 1 probe answer, 1 batch", st, r.calls.Load())
	}
}

// TestProbeFaultEntersTheWindow: a probe that panics, fails, or hits a
// failpoint costs the request its shortcut, never its answer.
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
			b := New(r.run, Config{MaxWait: time.Millisecond}, probe)
			defer b.Close()
			res, info, err := b.Submit(nil, Query{Table: "t", Set: colset.Of(2), Aggs: cnt()})
			if err != nil || res == nil {
				t.Fatalf("submit after a probe fault = %v, %v", res, err)
			}
			if info.Origin != engine.OriginComputed || r.calls.Load() != 1 {
				t.Fatalf("info %+v after %d runs; want the window's answer", info, r.calls.Load())
			}
			if st := b.Stats(); st.Submitted != 1 || st.ProbeAnswers != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestProbeContextErrorReturns: when the caller's own context ends during
// the probe, Submit returns that error rather than queueing dead work.
func TestProbeContextErrorReturns(t *testing.T) {
	r := &countingRunner{}
	ctx, cancel := context.WithCancel(context.Background())
	probe := perQuery(func(ctx context.Context, _ Query) (*table.Table, engine.SetOrigin, error) {
		cancel()
		return nil, engine.OriginComputed, ctx.Err()
	})
	b := New(r.run, Config{MaxWait: time.Millisecond}, probe)
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
