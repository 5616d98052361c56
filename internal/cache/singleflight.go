package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gbmqo/internal/exec"
)

// flightCall is one in-flight computation shared by every caller that asked
// for the same key while it ran.
type flightCall struct {
	done chan struct{} // closed once val and err are set
	val  any
	err  error
	// cancelled reports that the leader's computation failed after the
	// leader's own context ended: its error is the leader's, not the key's.
	cancelled bool
}

// flightGroup deduplicates concurrent computations by key: the first caller
// (the leader) runs fn, later callers wait until the leader finishes and
// share its outcome. Once the call completes the key is forgotten, so a later
// request computes afresh — the cache in front of the group is what makes
// repeated requests cheap, the group only collapses *stampedes*.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	leads, shared atomic.Int64 // computations run; callers given another's outcome
}

// do runs fn once per concurrently-requested key. shared reports whether this
// caller received another caller's result.
//
// Every caller answers to its own context: a follower waits for the leader
// or for ctx, whichever ends first, and returns ctx's error in the second
// case. A leader that failed because its own context ended leaves nothing to
// share: a follower whose context is still live leads the key again. A nil
// ctx never ends.
//
// A panic inside fn is recovered into a typed *exec.ExecError that propagates
// to the leader AND every waiter exactly once — nobody blocks forever, nobody
// sees a nil value with a nil error, and the process survives (a flight
// failure is an isolated, transient operator failure, exactly what the engine
// retry loop exists for). The flight is deregistered before delivery, so the
// failed value can never be mistaken for a usable result by a later caller.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, shared bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[string]*flightCall)
		}
		c, ok := g.calls[key]
		if !ok {
			break // g.mu still held: lead
		}
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
		if c.cancelled && ctx.Err() == nil {
			continue
		}
		g.shared.Add(1)
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	g.leads.Add(1)

	defer func() {
		if pnc := recover(); pnc != nil {
			c.val = nil
			c.err = &exec.ExecError{
				Step: fmt.Sprintf("in-flight computation %q", key),
				Err:  exec.RecoveredPanic(pnc),
			}
		}
		c.cancelled = c.err != nil && ctx.Err() != nil
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		val, err = c.val, c.err
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
