package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
)

// retrySets is an 8-query request shaped like the acceptance scenario.
func retrySets() []colset.Set {
	return []colset.Set{
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode, datagen.LShipDate),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode),
		colset.Of(datagen.LReturnFlag, datagen.LLineStatus),
		colset.Of(datagen.LLineStatus, datagen.LShipMode),
		colset.Of(datagen.LReturnFlag),
		colset.Of(datagen.LLineStatus),
		colset.Of(datagen.LShipMode),
		colset.Of(datagen.LShipDate),
	}
}

// TestRetryFaultTransientSucceeds injects one worker-style panic into the
// first attempt of an 8-query batch and checks the retry loop answers it:
// success, byte-correct results, and the failed attempt attributed in the
// report with its class, backoff and degraded modes.
func TestRetryFaultTransientSucceeds(t *testing.T) {
	e, li := newTestEngine(t, 4000)
	sets := retrySets()

	var fired atomic.Bool
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && fired.CompareAndSwap(false, true) {
			panic("injected transient fault")
		}
	})
	defer exec.Testing.ClearFailPoint()

	res, err := e.Run(Request{
		Table:      "lineitem",
		Sets:       sets,
		SharedScan: true,
		Parallel:   true,
		Retry:      fault.Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatalf("Run with one transient fault: %v", err)
	}
	if res.Report.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Report.Attempts)
	}
	if len(res.Report.Retries) != 1 {
		t.Fatalf("Retries = %+v, want exactly one", res.Report.Retries)
	}
	ra := res.Report.Retries[0]
	if ra.Attempt != 1 || ra.Class != exec.ClassTransient || ra.Err == nil {
		t.Fatalf("RetryAttempt = %+v", ra)
	}
	var ee *exec.ExecError
	if !errors.As(ra.Err, &ee) {
		t.Fatalf("retried error %v is not an *exec.ExecError", ra.Err)
	}
	if len(ra.Degraded) == 0 || ra.Degraded[0] != "sequential" {
		t.Fatalf("Degraded = %v, want sequential first", ra.Degraded)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

// TestRetryFaultDisabledByDefault checks the zero-value policy preserves
// single-attempt semantics: a persistent injected fault surfaces as a typed
// error after exactly one attempt.
func TestRetryFaultDisabledByDefault(t *testing.T) {
	e, _ := newTestEngine(t, 2000)
	var fires atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" {
			if fires.Add(1) == 1 {
				panic("persistent fault")
			}
		}
	})
	defer exec.Testing.ClearFailPoint()

	_, err := e.Run(Request{Table: "lineitem", Sets: retrySets()})
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *exec.ExecError", err)
	}
	if n := fires.Load(); n != 1 {
		t.Fatalf("engine.step fired %d times, want 1 (no retry)", n)
	}
}

// TestRetryFaultLadderDescends checks a fault that persists through the
// sequential retry is finally answered by the fully degraded attempt
// (sequential + unshared + no-retain + no-cache), with both failed attempts
// attributed.
func TestRetryFaultLadderDescends(t *testing.T) {
	e, li := newTestEngine(t, 3000)
	sets := retrySets()
	var fires atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		// Fail the first engine.step of attempts 1 and 2; attempt 3 runs clean.
		if site == "engine.step" {
			if n := fires.Add(1); n <= 2 {
				panic("double fault")
			}
		}
	})
	defer exec.Testing.ClearFailPoint()

	// Sequential from the start so the fire counter advances exactly once per
	// attempt reached (parallel sub-plans would consume several fires at once).
	res, err := e.Run(Request{
		Table:      "lineitem",
		Sets:       sets,
		SharedScan: true,
		Retry:      fault.Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatalf("Run with two transient faults: %v", err)
	}
	if res.Report.Attempts != 3 || len(res.Report.Retries) != 2 {
		t.Fatalf("Attempts = %d Retries = %d, want 3/2", res.Report.Attempts, len(res.Report.Retries))
	}
	second := res.Report.Retries[1].Degraded
	want := map[string]bool{"sequential": true, "unshared": true, "no-retain": true, "no-cache": true}
	for _, m := range second {
		delete(want, m)
	}
	if len(want) != 0 {
		t.Fatalf("second retry degraded = %v, missing %v", second, want)
	}
	// The winning attempt ran with NoRetain: no temp tables were materialized.
	if res.Report.TempTables != 0 {
		t.Fatalf("TempTables = %d on no-retain attempt, want 0", res.Report.TempTables)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

// TestRetryFaultExhaustionSurfacesError checks a fault that outlives the
// attempt budget surfaces the last error unchanged.
func TestRetryFaultExhaustionSurfacesError(t *testing.T) {
	e, _ := newTestEngine(t, 2000)
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" {
			panic("unkillable fault")
		}
	})
	defer exec.Testing.ClearFailPoint()

	_, err := e.Run(Request{
		Table: "lineitem",
		Sets:  retrySets(),
		Retry: fault.Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond},
	})
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *exec.ExecError after exhaustion", err)
	}
}

// TestRetryFaultCallerCancellationNotRetried checks a cancellation mid-plan
// is classified caller-side and never retried, even with attempts left.
func TestRetryFaultCallerCancellationNotRetried(t *testing.T) {
	e, _ := newTestEngine(t, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && steps.Add(1) == 3 {
			cancel()
		}
	})
	defer exec.Testing.ClearFailPoint()

	_, err := e.Run(Request{
		Table:   "lineitem",
		Sets:    retrySets(),
		Context: ctx,
		Retry:   fault.Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := steps.Load(); n != 3 {
		t.Fatalf("engine.step fired %d times, want 3 (cancelled attempt not retried)", n)
	}
}

// TestRetryFaultFatalNotRetried checks deterministic failures are classified
// fatal and fail immediately.
func TestRetryFaultFatalNotRetried(t *testing.T) {
	e, _ := newTestEngine(t, 100)
	_, err := e.Run(Request{
		Table: "no_such_table",
		Sets:  []colset.Set{colset.Of(0)},
		Retry: fault.Policy{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond},
	})
	if err == nil {
		t.Fatal("Run on unknown table succeeded")
	}
	if exec.Classify(err) != exec.ClassFatal {
		t.Fatalf("Classify(%v) = %v, want fatal", err, exec.Classify(err))
	}
}

// TestRetryFaultNoRetainByteIdentical checks a NoRetain run produces results
// byte-identical to a normal run while materializing nothing.
func TestRetryFaultNoRetainByteIdentical(t *testing.T) {
	e, _ := newTestEngine(t, 3000)
	sets := retrySets()
	norm, err := e.Run(Request{Table: "lineitem", Sets: sets, SharedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := e.Run(Request{Table: "lineitem", Sets: sets, SharedScan: true, NoRetain: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Report.TempTables != 0 {
		t.Fatalf("NoRetain run materialized %d temps", bare.Report.TempTables)
	}
	if bare.Report.RowsScanned <= norm.Report.RowsScanned {
		t.Fatalf("NoRetain scanned %d rows ≤ normal %d — re-derivation did not happen",
			bare.Report.RowsScanned, norm.Report.RowsScanned)
	}
	for _, s := range sets {
		a, b := norm.Report.Results[s], bare.Report.Results[s]
		if a == nil || b == nil {
			t.Fatalf("missing result for %s", s)
		}
		ai, _ := a.RowImage()
		bi, _ := b.RowImage()
		if string(ai) != string(bi) {
			t.Fatalf("set %s: NoRetain result differs from normal run", s)
		}
	}
}

// TestRetryFaultFlightLeaderPanicRetried is the singleflight regression at
// the engine boundary: a panic inside the cached residual computation (here
// at the cache.admit site, which fires inside the flight leader's Offer)
// surfaces as a typed transient error — never a nil value or a partial entry
// — and the retry ladder answers the request by dropping the cache.
func TestRetryFaultFlightLeaderPanicRetried(t *testing.T) {
	e, li := newTestEngine(t, 3000)
	e.SetCache(cache.New(cache.Config{MaxBytes: 64 << 20}))
	sets := retrySets()
	exec.Testing.SetFailPoint(func(site string) {
		if site == "cache.admit" {
			panic("admission fault")
		}
	})
	defer exec.Testing.ClearFailPoint()

	res, err := e.Run(Request{
		Table:      "lineitem",
		Sets:       sets,
		SharedScan: true,
		UseCache:   true,
		Retry:      fault.Policy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatalf("Run with admission faults: %v", err)
	}
	if res.Report.Attempts < 2 {
		t.Fatalf("Attempts = %d, want a retry", res.Report.Attempts)
	}
	if n := e.ResultCache().Len(); n != 0 {
		t.Fatalf("%d entries admitted despite every admission panicking", n)
	}
	assertResultsMatch(t, li, sets, res.Report.Results)
}

// TestRetryFaultBreakerOpensAndRecovers drives a table's breaker through the
// full closed → open → half-open → closed cycle via Engine.Run.
func TestRetryFaultBreakerOpensAndRecovers(t *testing.T) {
	e, _ := newTestEngine(t, 1000)
	clk := time.Unix(0, 0)
	var clkMu atomic.Int64 // nanoseconds added to clk
	now := func() time.Time { return clk.Add(time.Duration(clkMu.Load())) }
	e.EnableBreakers(fault.Config{
		Window:      4,
		MinSamples:  2,
		FailureRate: 0.5,
		OpenFor:     time.Second,
		Now:         now,
	})

	var failing atomic.Bool
	failing.Store(true)
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && failing.Load() {
			panic("table down")
		}
	})
	defer exec.Testing.ClearFailPoint()

	req := Request{Table: "lineitem", Sets: retrySets()[:2]}
	// Two failing runs reach MinSamples at a 100% failure rate: trips.
	for i := 0; i < 2; i++ {
		if _, err := e.Run(req); err == nil {
			t.Fatal("failing run succeeded")
		}
	}
	_, err := e.Run(req)
	var oe *fault.OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *fault.OpenError fail-fast", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("OpenError.RetryAfter = %v", oe.RetryAfter)
	}
	snaps := e.BreakerStates()
	if len(snaps) != 1 || snaps[0].State != fault.StateOpen {
		t.Fatalf("BreakerStates = %+v, want one open breaker", snaps)
	}

	// The table recovers; after the open interval the probe closes the breaker.
	failing.Store(false)
	clkMu.Store(int64(time.Second))
	if _, err := e.Run(req); err != nil {
		t.Fatalf("probe run after recovery: %v", err)
	}
	if snaps := e.BreakerStates(); snaps[0].State != fault.StateClosed {
		t.Fatalf("breaker after probe success = %v, want closed", snaps[0].State)
	}
	if _, err := e.Run(req); err != nil {
		t.Fatalf("run after breaker closed: %v", err)
	}
}

// TestRetryFaultNeverRunsThroughOpenBreaker pins the shared loop's rule that
// the breaker is asked before every attempt, not once per request: with a
// breaker that opens after two failures, one Run holding a six-attempt budget
// executes exactly two attempts and then fails fast.
func TestRetryFaultNeverRunsThroughOpenBreaker(t *testing.T) {
	e, _ := newTestEngine(t, 1000)
	e.EnableBreakers(fault.Config{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour})

	var attempts atomic.Int64
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" {
			attempts.Add(1)
			panic("table down")
		}
	})
	defer exec.Testing.ClearFailPoint()

	_, err := e.Run(Request{
		Table: "lineitem",
		Sets:  retrySets()[:1],
		Retry: fault.Policy{MaxAttempts: 6, BaseBackoff: 100 * time.Microsecond},
	})
	var oe *fault.OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *fault.OpenError once the breaker opened mid-request", err)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("executed %d attempts, want 2 (the breaker opened after the second)", n)
	}
}
