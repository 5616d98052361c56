package exec

import "sync/atomic"

// TestingHooks holds fault-injection hooks for deterministic robustness
// tests. Production code never installs a hook, so the per-site cost is one
// atomic pointer load on an already-amortized path (once per worker /
// cancellation checkpoint / engine step).
type TestingHooks struct {
	failPoint atomic.Pointer[func(site string)]
}

// Testing is the process-wide hook registry. Tests install a FailPoint to
// force worker panics, budget exhaustion or mid-plan cancellation at named
// execution sites; the hook may panic (simulating an operator bug), cancel a
// context, or mutate test state. Sites currently fired:
//
//	exec.share.worker    — when a parallel worker starts its share
//	exec.hash.batch      — at each block of the hash/dense scan loop
//	exec.sort.stream     — at each index-stream cancellation checkpoint
//	engine.step          — before each schedule step
//	engine.retain        — before a temp table is retained
//	cache.admit          — at the top of every cache admission (Offer)
//	sched.run            — at the start of every page run
//	shard.scatter        — at the start of every sharded gather
//	shard.exec           — before each shard execution (hedges included)
//	shard.merge          — before shard partials are merged
//	shard.hedge          — when a hedged duplicate request is launched
//	table.append         — before an append mutates any shared state
//	cache.refresh        — as a cached entry rolls forward across an append, after its merged table is built
//	wal.append           — after a WAL record's sequence is assigned, before it is written
//	wal.fsync            — before the WAL is synced
//	snapshot.write       — before any byte of a snapshot is written
//	recover.replay       — before each committed WAL record is delivered on recovery
//	sched.probe          — before the scheduler probes a page
//	server.handler       — before every HTTP request is routed
var Testing TestingHooks

// SetFailPoint installs fn as the process-wide fault-injection hook. The
// installation itself must not race with running plans (install before, clear
// after); firing is safe from any goroutine.
func (h *TestingHooks) SetFailPoint(fn func(site string)) {
	if fn == nil {
		h.failPoint.Store(nil)
		return
	}
	h.failPoint.Store(&fn)
}

// ClearFailPoint removes the hook.
func (h *TestingHooks) ClearFailPoint() { h.failPoint.Store(nil) }

// Fire invokes the hook, if any, with the site name. Exported so the engine
// layer can share the registry for its own sites.
func (h *TestingHooks) Fire(site string) {
	if fn := h.failPoint.Load(); fn != nil {
		(*fn)(site)
	}
}
