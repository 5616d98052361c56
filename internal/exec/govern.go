package exec

import (
	"context"
	"fmt"
	"sync/atomic"
)

// cancelCheckRows is the row granularity at which operator loops poll for
// cancellation — one block of the scan loop, sequential or in a parallel
// worker — so a cancelled context stops within one block's worth of work.
const cancelCheckRows = 4096

// ExecError is a typed execution failure carrying the step and plan-node
// context in which it occurred. Operator panics recovered by the execution
// layer (parallel workers, the ExecutePlan boundary) are converted into
// *ExecError so one bad plan never crashes the process; genuine invariant
// violations inside an operator still panic and are caught at the next
// recovery boundary.
type ExecError struct {
	// Step names the execution step that failed, e.g. "share worker 3" or
	// "compute {l_shipmode} from base".
	Step string
	// Node describes the plan node being evaluated, when known (the engine
	// fills it with the grouping set).
	Node string
	// Err is the underlying cause; recovered panics are wrapped as errors.
	Err error
}

// Error renders the failure with its context.
func (e *ExecError) Error() string {
	switch {
	case e.Step != "" && e.Node != "":
		return fmt.Sprintf("exec: %s (node %s): %v", e.Step, e.Node, e.Err)
	case e.Step != "":
		return fmt.Sprintf("exec: %s: %v", e.Step, e.Err)
	default:
		return fmt.Sprintf("exec: %v", e.Err)
	}
}

// Unwrap exposes the cause to errors.Is/As (a cancelled scan loop unwraps
// to context.Canceled).
func (e *ExecError) Unwrap() error { return e.Err }

// RecoveredPanic converts a recovered panic value into an error, preserving
// error panics for errors.Is/As chains.
func RecoveredPanic(p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("panic: %w", err)
	}
	return fmt.Errorf("panic: %v", p)
}

// MemBudget tracks the bytes held by execution working state — hash-table
// slots, accumulator arrays, materialized temp tables — against an optional
// limit. Charges are atomic, so one budget can be shared by concurrent
// sub-plans and parallel workers.
//
// The budget separates *accounting* from *admission*: Add/Release always
// record usage (an operator that was admitted may still overshoot its
// estimate; the tracker stays truthful), while WouldExceed is the admission
// gate the engine consults before starting a hash aggregation or retaining a
// temp table. A zero or negative limit means unlimited: WouldExceed is then
// always false and the tracker only measures PeakMem.
type MemBudget struct {
	limit int64
	used  atomic.Int64
	peak  atomic.Int64
}

// NewMemBudget creates a tracker with the given byte limit (<= 0 =
// unlimited, accounting only).
func NewMemBudget(limit int64) *MemBudget { return &MemBudget{limit: limit} }

// Limit returns the configured byte limit (0 = unlimited).
func (b *MemBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Add charges n bytes and updates the peak. Nil-safe.
func (b *MemBudget) Add(n int64) {
	if b == nil || n <= 0 {
		return
	}
	used := b.used.Add(n)
	for {
		peak := b.peak.Load()
		if used <= peak || b.peak.CompareAndSwap(peak, used) {
			return
		}
	}
}

// Release returns n bytes to the budget. Nil-safe.
func (b *MemBudget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-n)
}

// WouldExceed reports whether charging n more bytes would overflow the
// limit. Always false for unlimited (or nil) budgets.
func (b *MemBudget) WouldExceed(n int64) bool {
	if b == nil || b.limit <= 0 {
		return false
	}
	return b.used.Load()+n > b.limit
}

// Used returns the bytes currently charged.
func (b *MemBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of charged bytes.
func (b *MemBudget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Gov bundles the per-execution governance state threaded from the public
// query surface down to operator loops: the cancellation context and the
// memory budget. A nil *Gov is valid everywhere and means "ungoverned"
// (background context, unlimited budget), so operators pay no overhead when
// governance is off.
type Gov struct {
	ctx    context.Context
	budget *MemBudget
}

// NewGov builds a governor. ctx may be nil (Background); budget may be nil
// (untracked).
func NewGov(ctx context.Context, budget *MemBudget) *Gov {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Gov{ctx: ctx, budget: budget}
}

// Context returns the governing context. Nil-safe.
func (g *Gov) Context() context.Context {
	if g == nil || g.ctx == nil {
		return context.Background()
	}
	return g.ctx
}

// Budget returns the memory tracker (may be nil). Nil-safe.
func (g *Gov) Budget() *MemBudget {
	if g == nil {
		return nil
	}
	return g.budget
}

// Err polls the governing context. Nil-safe; the hot-loop cancellation
// checkpoint in every governed operator.
func (g *Gov) Err() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}
