// Package fault holds the server-grade fault-containment primitives that sit
// between the scheduler and the engine: a per-resource circuit breaker with
// the classic closed → open → half-open state machine over a sliding
// failure-rate window, the Registry that hands one out per resource name, and
// the one bounded-retry attempt loop (Policy.Do) that the engine's
// request-scope retries and the shard coordinator's per-shard retries both
// run. The breaker's job is blast-radius control — when a table's executions
// keep failing, new requests for it fail fast with a typed,
// Retry-After-carrying error instead of queueing more doomed work behind the
// fault.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a breaker's position in the closed/open/half-open machine.
type State int

// Breaker states.
const (
	// StateClosed: requests flow; outcomes feed the failure window.
	StateClosed State = iota
	// StateOpen: requests fail fast until the open interval elapses.
	StateOpen
	// StateHalfOpen: a bounded number of probe requests test recovery; one
	// probe success closes the breaker, one probe failure re-opens it.
	StateHalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes a Breaker. Zero values select the documented defaults.
type Config struct {
	// Window is the number of most-recent outcomes the failure rate is
	// computed over (default 32).
	Window int
	// MinSamples gates tripping: the breaker never opens before this many
	// outcomes are in the window (default 8), so one early failure on a cold
	// table cannot open it.
	MinSamples int
	// FailureRate opens the breaker when the windowed rate reaches it
	// (default 0.5).
	FailureRate float64
	// OpenFor is how long the breaker fails fast before probing (default 2s).
	OpenFor time.Duration
	// Probes is how many concurrent requests the half-open state admits
	// (default 1).
	Probes int
	// Now overrides the clock (tests). Nil selects time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// OpenError is the fail-fast error an open breaker returns. It carries the
// remaining open time so front-ends can surface a Retry-After.
type OpenError struct {
	// Name is the guarded resource (the base table).
	Name string
	// RetryAfter is how long until the breaker will admit a probe.
	RetryAfter time.Duration
}

// Error renders the fail-fast decision.
func (e *OpenError) Error() string {
	return fmt.Sprintf("fault: circuit breaker for %q open (retry in %v)", e.Name, e.RetryAfter)
}

// Snapshot is a point-in-time view of one breaker, the shape /healthz
// reports.
type Snapshot struct {
	// Name is the guarded resource.
	Name string
	// State is the current position.
	State State
	// Failures and Samples describe the sliding window.
	Failures int
	Samples  int
	// RetryAfter is the remaining fail-fast time (open state only).
	RetryAfter time.Duration
	// LastFailure is the message of the most recent failure recorded via
	// RecordErr — the "why" behind an open breaker. Empty when no failure has
	// been recorded (or failures were recorded via plain Record).
	LastFailure string
}

// Breaker is one resource's circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg  Config
	name string

	mu       sync.Mutex
	state    State
	ring     []bool // true = failure
	idx, n   int
	fails    int
	openedAt time.Time
	probes   int    // half-open probe slots remaining
	lastErr  string // most recent failure reason (RecordErr)
}

// New creates a closed breaker guarding name.
func New(name string, cfg Config) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, name: name, ring: make([]bool, cfg.Window)}
}

// Allow decides whether a request may proceed. It returns nil (go ahead —
// the caller must Record the outcome) or an *OpenError to fail fast with.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return nil
	case StateOpen:
		since := b.cfg.Now().Sub(b.openedAt)
		if since < b.cfg.OpenFor {
			return &OpenError{Name: b.name, RetryAfter: b.cfg.OpenFor - since}
		}
		// Open interval elapsed: move to half-open and admit this caller as
		// the first probe.
		b.state = StateHalfOpen
		b.probes = b.cfg.Probes - 1
		return nil
	default: // StateHalfOpen
		if b.probes > 0 {
			b.probes--
			return nil
		}
		return &OpenError{Name: b.name, RetryAfter: b.cfg.OpenFor}
	}
}

// Record feeds one outcome into the window and advances the state machine.
// Callers record every allowed attempt's outcome; caller-class failures
// (cancelled contexts) should not be recorded at all — they say nothing
// about the resource.
func (b *Breaker) Record(failure bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateHalfOpen:
		if failure {
			b.trip()
			return
		}
		// Recovery confirmed: close with a clean window so one stale failure
		// cannot immediately re-trip.
		b.state = StateClosed
		b.resetWindowLocked()
		return
	case StateOpen:
		// A straggler from before the trip; the window is already moot.
		return
	}
	if b.ring[b.idx] {
		b.fails--
	}
	b.ring[b.idx] = failure
	if failure {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	if b.n >= b.cfg.MinSamples && float64(b.fails)/float64(b.n) >= b.cfg.FailureRate {
		b.trip()
	}
}

// RecordErr records a failure outcome and remembers err's message as the
// breaker's last-failure reason (surfaced in Snapshot.LastFailure and from
// there in /healthz). A nil err records a success, exactly like
// Record(false).
func (b *Breaker) RecordErr(err error) {
	if b == nil {
		return
	}
	if err == nil {
		b.Record(false)
		return
	}
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
	b.Record(true)
}

// trip opens the breaker. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = StateOpen
	b.openedAt = b.cfg.Now()
	b.probes = 0
}

// resetWindowLocked clears the sliding window. Callers hold b.mu.
func (b *Breaker) resetWindowLocked() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.idx, b.n, b.fails = 0, 0, 0
}

// Snapshot reports the breaker's current state.
func (b *Breaker) Snapshot() Snapshot {
	if b == nil {
		return Snapshot{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{Name: b.name, State: b.state, Failures: b.fails, Samples: b.n,
		LastFailure: b.lastErr}
	if b.state == StateOpen {
		if left := b.cfg.OpenFor - b.cfg.Now().Sub(b.openedAt); left > 0 {
			s.RetryAfter = left
		}
	}
	return s
}

// Registry lazily materializes one breaker per resource name, all sharing one
// Config. A nil *Registry hands out nil breakers, which admit everything.
type Registry struct {
	cfg Config
	mu  sync.Mutex
	m   map[string]*Breaker
}

// NewRegistry creates an empty registry whose breakers use cfg.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, m: map[string]*Breaker{}}
}

// Get returns the breaker guarding name, creating it closed on first use.
func (r *Registry) Get(name string) *Breaker {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[name]
	if !ok {
		b = New(name, r.cfg)
		r.m[name] = b
	}
	return b
}

// Snapshots reports every materialized breaker, sorted by name. Nil for a nil
// registry.
func (r *Registry) Snapshots() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.m))
	for _, b := range r.m {
		out = append(out, b.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
