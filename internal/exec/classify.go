package exec

import (
	"context"
	"errors"
	"fmt"
)

// ErrClass partitions execution failures by who should act on them — the
// caller, the engine's retry loop, or nobody. The classification drives the
// engine-boundary retry policy and the per-table circuit breaker: only
// transient failures are retried, and only non-caller failures count against
// a table's breaker window.
type ErrClass int

// Error classes.
const (
	// ClassCaller: the caller caused it — context cancellation or deadline.
	// Retrying cannot help (the caller has left) and the failure says nothing
	// about the table's health.
	ClassCaller ErrClass = iota
	// ClassTransient: an isolated operator failure (a recovered panic, a
	// poisoned parallel worker, a failed in-flight cache computation) that a
	// fresh — possibly degraded — attempt may avoid.
	ClassTransient
	// ClassFatal: a deterministic failure (unknown table or column, malformed
	// request, planning error) that every retry would repeat.
	ClassFatal
)

// String names the class.
func (c ErrClass) String() string {
	switch c {
	case ClassCaller:
		return "caller"
	case ClassTransient:
		return "transient"
	case ClassFatal:
		return "fatal"
	default:
		return fmt.Sprintf("ErrClass(%d)", int(c))
	}
}

// Classify assigns an execution error to its class. Context errors anywhere
// in the chain win (a cancelled parallel scan surfaces as an *ExecError
// wrapping context.Canceled — that is the caller's doing, not the
// operator's); remaining typed *ExecError values — recovered panics and
// isolated operator failures — are transient; everything else is fatal.
func Classify(err error) ErrClass {
	if err == nil {
		return ClassCaller
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCaller
	}
	var ee *ExecError
	if errors.As(err, &ee) {
		return ClassTransient
	}
	return ClassFatal
}
