package fault

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/exec"
)

var (
	errTransient = &exec.ExecError{Step: "test", Err: errors.New("isolated fault")}
	errFatal     = errors.New("unknown table")
	errCaller    = context.Canceled
	// errOpen marks "want an *OpenError" in the decision table.
	errOpen = errors.New("open")
)

// tripAfterTwo opens after two recorded failures and stays open.
func tripAfterTwo() *Breaker {
	return New("t", Config{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour})
}

// TestDoClassBudgetBreaker walks the loop's decision table: which failure
// classes retry, where the budget stops them, what the breaker is told, and
// that an open breaker is honoured before every attempt.
func TestDoClassBudgetBreaker(t *testing.T) {
	open := func() *Breaker {
		b := tripAfterTwo()
		b.Record(true)
		b.Record(true)
		return b
	}
	cases := []struct {
		name     string
		budget   int
		br       *Breaker
		errs     []error // attempt n returns errs[n-1]; past the end = success
		attempts int
		retries  int
		want     error // nil = success, errOpen = *OpenError
		samples  int   // outcomes the breaker recorded (closed breakers only)
	}{
		{name: "first try succeeds", budget: 3, br: tripAfterTwo(), attempts: 1, samples: 1},
		{name: "zero budget is one attempt", budget: 0, errs: []error{errTransient}, attempts: 1, want: errTransient},
		{name: "transient retried to success", budget: 3, br: New("t", Config{}), errs: []error{errTransient, errTransient}, attempts: 3, retries: 2, samples: 3},
		{name: "transient exhausts budget", budget: 2, errs: []error{errTransient, errTransient, errTransient}, attempts: 2, retries: 1, want: errTransient},
		{name: "fatal never retried", budget: 5, br: tripAfterTwo(), errs: []error{errFatal}, attempts: 1, want: errFatal, samples: 1},
		{name: "caller never retried nor recorded", budget: 5, br: tripAfterTwo(), errs: []error{errCaller}, attempts: 1, want: errCaller, samples: 0},
		{name: "open breaker admits nothing", budget: 5, br: open(), attempts: 0, want: errOpen},
		// The second failure still announces a retry and backs off; the breaker
		// it tripped is what the third Allow meets.
		{name: "breaker opening mid-loop stops the retries", budget: 6, br: tripAfterTwo(), errs: []error{errTransient, errTransient, errTransient}, attempts: 2, retries: 2, want: errOpen},
		{name: "nil breaker admits everything", budget: 4, errs: []error{errTransient, errTransient, errTransient}, attempts: 4, retries: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := Policy{MaxAttempts: tc.budget, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}
			attempts, retries := 0, 0
			err := pol.Do(context.Background(), tc.br, func(n int) error {
				attempts++
				if n != attempts {
					t.Errorf("attempt index %d on call %d", n, attempts)
				}
				if n <= len(tc.errs) {
					return tc.errs[n-1]
				}
				return nil
			}, func(n int, err error, backoff time.Duration) {
				retries++
				if n != attempts || err != tc.errs[n-1] || backoff <= 0 {
					t.Errorf("retrying(%d, %v, %v) after attempt %d", n, err, backoff, attempts)
				}
			})
			if attempts != tc.attempts || retries != tc.retries {
				t.Fatalf("attempts=%d retries=%d, want %d/%d", attempts, retries, tc.attempts, tc.retries)
			}
			var oe *OpenError
			switch {
			case tc.want == errOpen:
				if !errors.As(err, &oe) {
					t.Fatalf("err = %v, want *OpenError", err)
				}
			case err != tc.want:
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if tc.br != nil && tc.want != errOpen {
				if s := tc.br.Snapshot(); s.Samples != tc.samples {
					t.Fatalf("breaker recorded %d outcomes, want %d", s.Samples, tc.samples)
				}
			}
		})
	}
}

// TestBackoffBounds checks the one backoff: exponential from the base, capped,
// with at most 50% jitter, and defaulted from the zero policy.
func TestBackoffBounds(t *testing.T) {
	p := Policy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	for n, base := range map[int]time.Duration{1: 1, 2: 2, 3: 4, 4: 8, 9: 8} {
		base *= time.Millisecond
		for i := 0; i < 50; i++ {
			if d := p.Backoff(n); d < base || d > base+base/2 {
				t.Fatalf("Backoff(%d) = %v, want within [%v, %v]", n, d, base, base+base/2)
			}
		}
	}
	if d := (Policy{}).Backoff(1); d < time.Millisecond || d > 1500*time.Microsecond {
		t.Fatalf("zero-policy Backoff(1) = %v, want the 1ms default plus jitter", d)
	}
	if d := (Policy{}).Backoff(30); d < 100*time.Millisecond || d > 150*time.Millisecond {
		t.Fatalf("zero-policy Backoff(30) = %v, want the 100ms cap plus jitter", d)
	}
}

// TestDoCancelledDuringBackoff: a caller that leaves while the loop sleeps
// gets its own context error back, promptly, and no further attempt runs.
func TestDoCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pol := Policy{MaxAttempts: 3, BaseBackoff: time.Hour, MaxBackoff: time.Hour}
	attempts := 0
	err := pol.Do(ctx, nil, func(int) error {
		attempts++
		return errTransient
	}, func(int, error, time.Duration) { cancel() })
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want context.Canceled after 1", err, attempts)
	}
}

// TestDoConcurrentCallersOneBreaker runs many loops against one breaker (the
// shape of concurrent submitters on one table) under the race detector: every
// loop terminates, and once the breaker opens the rest fail fast.
func TestDoConcurrentCallersOneBreaker(t *testing.T) {
	br := New("t", Config{Window: 8, MinSamples: 4, FailureRate: 0.5, OpenFor: time.Hour})
	pol := Policy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}
	var ran, opened atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := pol.Do(context.Background(), br, func(int) error {
				ran.Add(1)
				return errTransient
			}, func(int, error, time.Duration) {})
			var oe *OpenError
			if errors.As(err, &oe) {
				opened.Add(1)
			} else if err != errTransient {
				t.Errorf("err = %v, want the transient error or *OpenError", err)
			}
		}()
	}
	wg.Wait()
	if s := br.Snapshot(); s.State != StateOpen {
		t.Fatalf("breaker %v after 16 failing callers, want open", s.State)
	}
	if opened.Load() == 0 || ran.Load() >= 16*4 {
		t.Fatalf("%d attempts ran, %d callers failed fast: the open breaker stopped nothing", ran.Load(), opened.Load())
	}
}

// TestRegistry: breakers materialize once per name, snapshots come back
// sorted, and a nil registry is the "breakers off" value.
func TestRegistry(t *testing.T) {
	r := NewRegistry(Config{})
	if r.Get("b") != r.Get("b") {
		t.Fatal("Get materialized two breakers for one name")
	}
	r.Get("a").RecordErr(errFatal)
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "b" || snaps[0].LastFailure != errFatal.Error() {
		t.Fatalf("Snapshots = %+v", snaps)
	}
	var off *Registry
	if off.Get("a") != nil || off.Snapshots() != nil {
		t.Fatal("nil registry handed out a breaker")
	}
}
