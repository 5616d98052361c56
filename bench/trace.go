package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into the program. Spans of one
// operation share Req; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the recorder's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer is the in-memory span recorder of a traced run. It records every
// other operation — the batch workloads switch it on for every other round,
// the serve workloads use startOp — so one run yields traced and untraced
// samples of the same operations and their difference is the tracing
// overhead. A nil tracer records nothing.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	ops    atomic.Uint64
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// setOn switches recording; a no-op on a nil tracer.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// newID hands out an identifier for a request or span.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// openSpan is a started span; end records it. A nil openSpan (tracing off)
// is valid and does nothing.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(name string, parent, req uint64) *openSpan {
	if !t.enabled() {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.newID(), Parent: parent, Req: req, Name: name, StartNs: int64(time.Since(t.t0))}}
}

// startOp starts the root span of every other concurrent operation.
// Alternating by count, not by time, keeps the traced half free of whatever
// else runs on a clock (appends, snapshots).
func (t *tracer) startOp(name string, req uint64) *openSpan {
	if !t.enabled() || t.ops.Add(1)%2 == 0 {
		return nil
	}
	return t.start(name, 0, req)
}

// child starts a span beneath a recorded one. It records whenever its parent
// was recorded (parent != 0), whatever the switch says by now, so a trace
// never holds half an operation.
func (t *tracer) child(name string, parent, req uint64) *openSpan {
	if t == nil || parent == 0 {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.newID(), Parent: parent, Req: req, Name: name, StartNs: int64(time.Since(t.t0))}}
}

func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.EndNs = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// selfTime is a span name's share of the trace: how often it ran, its total
// duration, and the part of that its child spans do not cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, duration minus the part of the interval
// child spans cover (overlapping children are merged before subtracting).
func selfTimes(spans []span) map[string]selfTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		st.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Provenance provenance          `json:"provenance"`
	SelfTime   map[string]selfTime `json:"self_time"`
	Spans      []span              `json:"spans"`
}

// write stores the trace under dir and returns the file's path.
func (t *tracer) write(dir, workload string, prov provenance) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].StartNs < spans[b].StartNs })
	b, err := json.Marshal(traceFile{Provenance: prov, SelfTime: selfTimes(spans), Spans: spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// durationsOf returns the durations of every recorded span with this name.
func (t *tracer) durationsOf(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}
