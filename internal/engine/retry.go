package engine

import (
	"context"
	"time"

	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
)

// RetryAttempt attributes one failed-and-retried attempt in an ExecReport:
// which attempt failed, why, how it was classified, how long the loop backed
// off, and which degraded modes the following attempt ran under.
type RetryAttempt struct {
	// Attempt is the 1-based index of the attempt that failed.
	Attempt int
	// Err is the failure that triggered the retry.
	Err error
	// Class is its classification (always exec.ClassTransient — other classes
	// are not retried).
	Class exec.ErrClass
	// Backoff is the jittered sleep taken before the next attempt.
	Backoff time.Duration
	// Degraded lists the degradation-ladder modes applied to the next attempt
	// ("sequential", "unshared", "no-retain", "no-cache").
	Degraded []string
}

// Degrade descends the degradation ladder for attempt n (1-based, so n ≥ 2
// is a retry) and returns the request with the ladder's modes applied plus
// their names. The first retry drops intra-operator and sub-plan parallelism —
// a poisoned parallel worker cannot poison a sequential pass; further retries
// also drop shared scans, temp retention and the cache, reducing the run to
// the simplest, most isolated form that can still answer. Every attempt loop
// (request scope here, shard scope in internal/shard) descends this ladder.
func (req Request) Degrade(n int) (Request, []string) {
	var modes []string
	if n >= 2 {
		req.Parallel = false
		req.Parallelism = 0
		modes = append(modes, "sequential")
	}
	if n >= 3 {
		req.SharedScan = false
		req.NoRetain = true
		req.UseCache = false
		modes = append(modes, "unshared", "no-retain", "no-cache")
	}
	return req, modes
}

// runSafe is one attempt behind a panic barrier. ExecutePlanWith already
// recovers operator panics, but the surrounding machinery — shard routing,
// cache admission, promotion hooks, report assembly — runs outside that
// boundary; a panic there becomes a typed transient error instead of killing
// the submitter goroutine.
//
// A shard router, when installed, is offered the attempt first: it owns
// scatter-gather resilience inside the attempt (per-shard retries, hedging,
// partial results), while coordinator-level transient failures still descend
// the request-scope loop. Returning handled=false (request not shardable)
// falls through to the local engine: the result cache when the request opts
// in, the planner otherwise.
func (e *Engine) runSafe(req Request) (res *RunResult, err error) {
	defer func() {
		if pnc := recover(); pnc != nil {
			res = nil
			err = &exec.ExecError{Step: "engine.run", Err: exec.RecoveredPanic(pnc)}
		}
	}()
	if rp := e.router.Load(); rp != nil {
		if res, err, handled := (*rp)(req); handled {
			return res, err
		}
	}
	if e.servesFromCache(req) {
		return e.runCached(req)
	}
	res, err = e.runDirect(req, nil)
	if err != nil {
		return nil, err
	}
	markOrigins(res.Report, req.Sets, OriginComputed)
	return res, nil
}

// runWithRetry is the engine-boundary resilience loop: fault.Policy.Do behind
// the table's circuit breaker, each retry one rung down the degradation
// ladder and attributed as a RetryAttempt row in the report.
func (e *Engine) runWithRetry(req Request) (*RunResult, error) {
	ctx := req.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var res *RunResult
	var retries []RetryAttempt
	cur := req
	err := req.Retry.Do(ctx, e.breakers.Load().Get(req.Table), func(int) (err error) {
		res, err = e.runSafe(cur)
		return err
	}, func(n int, err error, backoff time.Duration) {
		var modes []string
		cur, modes = req.Degrade(n + 1)
		retries = append(retries, RetryAttempt{
			Attempt:  n,
			Err:      err,
			Class:    exec.ClassTransient,
			Backoff:  backoff,
			Degraded: modes,
		})
	})
	if err != nil {
		return nil, err
	}
	res.Report.Attempts = len(retries) + 1
	res.Report.Retries = retries
	return res, nil
}

// EnableBreakers installs per-table circuit breakers with the given config;
// every subsequent Run consults its table's breaker before each attempt.
// Breakers are off by default — existing fault-injection tests and
// single-shot callers keep fail-every-time semantics.
func (e *Engine) EnableBreakers(cfg fault.Config) { e.breakers.Store(fault.NewRegistry(cfg)) }

// DisableBreakers removes the breaker layer.
func (e *Engine) DisableBreakers() { e.breakers.Store(nil) }

// BreakerStates snapshots every materialized breaker, sorted by name. Nil
// when breakers are disabled.
func (e *Engine) BreakerStates() []fault.Snapshot { return e.breakers.Load().Snapshots() }
