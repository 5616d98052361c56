package fault

import (
	"context"
	"math/rand"
	"time"

	"gbmqo/internal/exec"
)

// Policy bounds one attempt loop (see Do). The zero value is a single attempt:
// callers that want resilience opt in by raising MaxAttempts.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Values ≤ 1 disable retries.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it (plus up to 50% jitter, so synchronized failures do not
	// retry in lockstep). 0 selects 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. 0 selects 100ms.
	MaxBackoff time.Duration
}

// Backoff computes the jittered sleep after failed attempt n (1-based).
func (p Policy) Backoff(n int) time.Duration {
	d, max := p.BaseBackoff, p.MaxBackoff
	if d <= 0 {
		d = time.Millisecond
	}
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Do is the attempt loop every resilience boundary shares: ask br before
// every attempt (a retry never runs through an open breaker), run attempt n
// (1-based), classify a failure, feed the outcome to br — caller-class
// failures excepted: a cancellation says nothing about the resource — and
// retry transient failures while the budget lasts, backing off under ctx.
// retrying observes each failed-and-retried attempt before the sleep; the
// caller degrades its next attempt and keeps its books there. A nil br admits
// everything. Do returns nil on the first success, else the *OpenError, the
// last attempt's error, or ctx.Err() when the caller left during a backoff.
func (p Policy) Do(ctx context.Context, br *Breaker, attempt func(n int) error, retrying func(n int, err error, backoff time.Duration)) error {
	for n := 1; ; n++ {
		if err := br.Allow(); err != nil {
			return err
		}
		err := attempt(n)
		if err == nil {
			br.Record(false)
			return nil
		}
		class := exec.Classify(err)
		if class != exec.ClassCaller {
			br.RecordErr(err)
		}
		if class != exec.ClassTransient || n >= p.MaxAttempts {
			return err
		}
		backoff := p.Backoff(n)
		retrying(n, err, backoff)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}
