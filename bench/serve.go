package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo"
	"gbmqo/internal/server"
)

// serveSpec is what distinguishes the two serve workloads.
type serveSpec struct {
	// dims is how many of the lowest-NDV columns span the lattice.
	dims       int
	cacheBytes int64
	// durable opens the DB on a data dir (fsync=always) and runs the paced
	// writer beside the page clients.
	durable bool
}

const (
	appendEvery = 100 * time.Millisecond
	// snapshotCycles is how many background snapshots the measured window of
	// the durable workload spans.
	snapshotCycles = 8
	// overrun is how long past its window a serve phase may chase its sample
	// floor before it gives up (and the percentile helper refuses the run):
	// an overloaded system must end the run, not hang it.
	overrun = 60 * time.Second
)

// serveEnv is a serve workload's system under test: a DB behind a real
// net/http server on loopback, plus what the clients and checks need.
type serveEnv struct {
	spec    serveSpec
	db      *gbmqo.DB
	cfg     *gbmqo.Config
	base    *gbmqo.Table
	queries []gbmqo.GroupQuery
	frags   [][]byte // each query's JSON request fragment
	url     string
	srv     *http.Server
	served  chan struct{}
	dataDir string
	tr      *tracer

	// rowsAcked counts rows of acknowledged appends (plus the registered
	// rows), rowsSent those handed to Append: every answer's COUNT(*) total
	// must lie between the first at send and the second at receipt.
	rowsAcked, rowsSent atomic.Int64
}

func (s serveSpec) durability(c config) *gbmqo.DurabilityOptions {
	return &gbmqo.DurabilityOptions{Fsync: fsyncPolicy, SnapshotInterval: c.window(1) / snapshotCycles}
}

// startServe is the serve workloads' set-up: dataset, DB, registration, HTTP
// server, and one warm-up pass asking every lattice query once.
func startServe(c config, spec serveSpec, tr *tracer, seq int) (*serveEnv, error) {
	req := tr.newID()
	t, err := genTable(c)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{spec: spec, base: t, tr: tr, cfg: &gbmqo.Config{CacheBytes: spec.cacheBytes, Seed: 1}}
	if spec.durable {
		e.dataDir = filepath.Join(c.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), seq))
		if err := os.RemoveAll(e.dataDir); err != nil {
			return nil, err
		}
		sp := tr.start("db.open_durable", 0, req)
		e.db, _, err = gbmqo.OpenDurable(e.dataDir, e.cfg, spec.durability(c))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("open durable: %w", err)
		}
	} else {
		sp := tr.start("db.open", 0, req)
		e.db = gbmqo.Open(e.cfg)
		sp.end()
	}
	sp := tr.start("db.register", 0, req)
	err = e.db.RegisterDurable(t)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	e.rowsAcked.Store(int64(t.NumRows()))
	e.rowsSent.Store(int64(t.NumRows()))
	e.queries = lattice(t, spec.dims)
	for _, q := range e.queries {
		frag, err := json.Marshal(map[string]any{"cols": q.Cols})
		if err != nil {
			return nil, err
		}
		e.frags = append(e.frags, frag)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String() + "/query"
	h := server.New(e.db).Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	e.srv = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // always ErrServerClosed after stop
	}()

	tr.setOn(false) // the warm-up pages are cold: keep them out of the handler's spans
	cl := e.newClient(0, 0)
	defer cl.hc.CloseIdleConnections()
	for lo := 0; lo < len(e.queries); lo += pageQueries {
		page := make([]int, 0, pageQueries)
		for i := lo; i < min(lo+pageQueries, len(e.queries)); i++ {
			page = append(page, i)
		}
		if err := e.httpPage(cl, page); err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up page: %w", err)
		}
	}
	return e, nil
}

// stop shuts the server and the DB down and removes the data dir.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	<-e.served
	_ = e.db.Close(ctx)
	if e.dataDir != "" {
		_ = os.RemoveAll(e.dataDir)
	}
}

const (
	hdrRequest = "X-Bench-Request"
	hdrSpan    = "X-Bench-Span"
)

// traceHandler is the timing middleware of a traced run: a request that
// carries its round trip's span gets a server.handler span beneath it.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
		sp := tr.child("server.handler", parent, req)
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// pageClient is one closed-loop client: its own connection, its own seeded
// page stream, its own tallies (merged after the phase).
type pageClient struct {
	id     int
	hc     *http.Client
	stream *pageStream
	tally
}

// tally is what one client saw during a phase.
type tally struct {
	opCount
	lat       opSamples
	respBytes int64
	// From each answer's batch object.
	queueWait    []float64
	answers      int
	batchQueries int
	deduped      int
}

func (t *tally) merge(o *tally) {
	t.add(o.opCount)
	t.lat.plain = append(t.lat.plain, o.lat.plain...)
	t.lat.traced = append(t.lat.traced, o.lat.traced...)
	t.respBytes += o.respBytes
	t.queueWait = append(t.queueWait, o.queueWait...)
	t.answers += o.answers
	t.batchQueries += o.batchQueries
	t.deduped += o.deduped
}

func (e *serveEnv) newClient(id int, seed int64) *pageClient {
	return &pageClient{
		id:     id,
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		stream: newPageStream(seed, id, len(e.queries)),
	}
}

// pageResponse is the part of a POST /query response the client checks.
type pageResponse struct {
	Results []struct {
		Result *struct {
			Rows [][]any `json:"rows"`
		} `json:"result"`
		Batch *struct {
			BatchQueries int     `json:"batch_queries"`
			Deduped      bool    `json:"deduped"`
			QueueWaitMS  float64 `json:"queue_wait_ms"`
		} `json:"batch"`
		Error string `json:"error"`
	} `json:"results"`
}

// post sends one page and returns the fully read body and the client-observed
// wall time from send to last byte.
func (e *serveEnv) post(cl *pageClient, page []int) (body []byte, lat time.Duration, traced bool, err error) {
	var buf bytes.Buffer
	buf.WriteString(`{"table":"` + tableName + `","queries":[`)
	for i, q := range page {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(e.frags[q])
	}
	buf.WriteString(`]}`)
	hreq, err := http.NewRequest(http.MethodPost, e.url, &buf)
	if err != nil {
		return nil, 0, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	req := e.tr.newID()
	sp := e.tr.startOp("http.roundtrip", req)
	if sp != nil {
		hreq.Header.Set(hdrRequest, strconv.FormatUint(req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatUint(sp.id(), 10))
	}
	t0 := time.Now()
	resp, err := cl.hc.Do(hreq)
	if err != nil {
		sp.end()
		return nil, 0, sp != nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	sp.end()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	return body, lat, sp != nil, err
}

// httpPage posts one page, checks every answer, and tallies it. A failed
// page contributes no latency sample.
func (e *serveEnv) httpPage(cl *pageClient, page []int) error {
	cl.Attempted++
	lo := e.rowsAcked.Load()
	body, lat, traced, err := e.post(cl, page)
	hi := e.rowsSent.Load()
	if err == nil {
		err = e.checkPage(cl, body, len(page), lo, hi)
	}
	if err != nil {
		cl.fail("page: %v", err)
		return err
	}
	cl.respBytes += int64(len(body))
	cl.lat.add(lat, traced)
	return nil
}

// checkPage verifies a page's answers: one per query, none carrying an
// error, each COUNT(*) total between the row counts before and after.
func (e *serveEnv) checkPage(cl *pageClient, body []byte, want int, lo, hi int64) error {
	var pr pageResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if len(pr.Results) != want {
		return fmt.Errorf("%d answers for %d queries", len(pr.Results), want)
	}
	for i, r := range pr.Results {
		if r.Error != "" || r.Result == nil || r.Batch == nil {
			return fmt.Errorf("answer %d: error %q", i, r.Error)
		}
		total := int64(0)
		for _, row := range r.Result.Rows {
			n, ok := row[len(row)-1].(float64)
			if !ok {
				return fmt.Errorf("answer %d: count column holds %T", i, row[len(row)-1])
			}
			total += int64(n)
		}
		if total < lo || total > hi {
			return fmt.Errorf("answer %d: COUNT(*) total %d outside [%d, %d]", i, total, lo, hi)
		}
		cl.answers++
		cl.batchQueries += r.Batch.BatchQueries
		cl.queueWait = append(cl.queueWait, r.Batch.QueueWaitMS)
		if r.Batch.Deduped {
			cl.deduped++
		}
	}
	return nil
}

// submitPage asks one page in-process: its queries as concurrent DB.Submit
// calls, what an embedding program does in place of POST /query.
func (e *serveEnv) submitPage(cl *pageClient, page []int) {
	cl.Attempted++
	lo := e.rowsAcked.Load()
	errs := make([]error, len(page))
	totals := make([]int64, len(page))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, q := range page {
		wg.Add(1)
		go func(i, q int) {
			defer wg.Done()
			res, _, err := e.db.Submit(context.Background(), tableName, e.queries[q])
			if err != nil {
				errs[i] = err
				return
			}
			cnt := res.Col(res.NumCols() - 1)
			for r := 0; r < res.NumRows(); r++ {
				totals[i] += cnt.Value(r).I
			}
		}(i, q)
	}
	wg.Wait()
	lat := time.Since(t0)
	hi := e.rowsSent.Load()
	for i := range page {
		if errs[i] == nil && (totals[i] < lo || totals[i] > hi) {
			errs[i] = fmt.Errorf("COUNT(*) total %d outside [%d, %d]", totals[i], lo, hi)
		}
	}
	if err := errors.Join(errs...); err != nil {
		cl.fail("in-process page: %v", err)
		return
	}
	cl.lat.add(lat, false)
}

// runClients drives the closed loop: each client asks its next page a short
// random pause after the previous one is answered, until the time is up and
// the phase has at least floor pages. It returns the merged tally and the
// window's length.
func (e *serveEnv) runClients(seed int64, dur time.Duration, floor int, ask func(cl *pageClient, page []int)) (*tally, time.Duration) {
	var pages atomic.Int64
	var wg sync.WaitGroup
	cls := make([]*pageClient, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for i := range cls {
		cls[i] = e.newClient(i, seed)
		wg.Add(1)
		go func(cl *pageClient) {
			defer wg.Done()
			defer cl.hc.CloseIdleConnections()
			for time.Now().Before(deadline) || (pages.Load() < int64(floor) && time.Now().Before(deadline.Add(overrun))) {
				ask(cl, cl.stream.next())
				pages.Add(1)
				time.Sleep(cl.stream.think())
			}
		}(cls[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{}
	for _, cl := range cls {
		total.merge(&cl.tally)
	}
	return total, elapsed
}

// finalCheck re-asks every lattice query over HTTP after load has stopped
// and compares each answer, byte for byte, with a naive recompute at the
// final epoch: a DB of its own holding the final table, Naive strategy,
// sequential, uncached, answering through the same handler.
func (e *serveEnv) finalCheck(o *outcome) error {
	final, ok := e.db.Table(tableName)
	if !ok {
		return errors.New("final check: table is gone")
	}
	if got, want := int64(final.NumRows()), e.rowsAcked.Load(); got != want {
		o.fail("table holds %d rows, want registered + acknowledged = %d", got, want)
	}
	ref := gbmqo.Open(nil)
	ref.Register(final)
	ref.StartBatching(gbmqo.BatchOptions{Exec: gbmqo.QueryOptions{Strategy: gbmqo.Naive, NoCache: true}})
	defer ref.StopBatching()
	refHandler := server.New(ref).Handler()
	cl := e.newClient(0, 0)
	defer cl.hc.CloseIdleConnections()
	type rawResponse struct {
		Results []struct {
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		} `json:"results"`
	}
	for q := range e.queries {
		o.Attempted++
		body, _, _, err := e.post(cl, []int{q})
		if err != nil {
			o.fail("final check, query %d: %v", q, err)
			continue
		}
		rec := httptest.NewRecorder()
		reqBody := `{"table":"` + tableName + `","queries":[` + string(e.frags[q]) + `]}`
		refHandler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(reqBody))))
		var got, want rawResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("final check: %w", err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			return fmt.Errorf("final check, reference: %w", err)
		}
		if len(got.Results) != 1 || len(want.Results) != 1 || want.Results[0].Error != "" || len(want.Results[0].Result) == 0 {
			return fmt.Errorf("final check, query %d: malformed answers (reference error %q)", q, want.Results[0].Error)
		}
		if got.Results[0].Error != "" || !bytes.Equal(got.Results[0].Result, want.Results[0].Result) {
			o.fail("final check: query %v differs from the naive recompute", e.queries[q].Cols)
		}
	}
	return nil
}

// counters is a snapshot of the reports the serve workloads read deltas of.
type counters struct {
	cache   gbmqo.CacheStats
	batch   gbmqo.BatchStats
	metrics map[string]float64
}

func (e *serveEnv) counters() counters {
	var c counters
	c.cache, _ = e.db.CacheStats()
	c.batch, _ = e.db.BatchStats()
	c.metrics = e.db.Metrics()
	return c
}

// layerMetrics writes the cache, sched, server and engine metrics of a serve
// window from counter deltas, the clients' tallies and the recorded spans.
func (e *serveEnv) layerMetrics(l *ledger, before, after counters, pages *tally) {
	dc := func(a, b int64) float64 { return float64(b - a) }
	hits := dc(before.cache.Hits, after.cache.Hits)
	anc := dc(before.cache.AncestorHits, after.cache.AncestorHits)
	miss := dc(before.cache.Misses, after.cache.Misses)
	if lookups := hits + anc + miss; lookups > 0 {
		l.set("cache.hit_ratio", hits/lookups)
		l.set("cache.ancestor_ratio", anc/lookups)
		l.set("cache.miss_ratio", miss/lookups)
	}
	l.set("cache.admissions", dc(before.cache.Admissions, after.cache.Admissions))
	l.set("cache.rejections", dc(before.cache.Rejections, after.cache.Rejections))
	l.set("cache.evictions", dc(before.cache.Evictions, after.cache.Evictions))
	l.set("cache.invalidations", dc(before.cache.Invalidations, after.cache.Invalidations))
	l.set("cache.refreshes", dc(before.cache.Refreshes, after.cache.Refreshes))
	l.set("cache.flight_shared", dc(before.cache.FlightShared, after.cache.FlightShared))
	l.set("cache.resident_mb", float64(after.cache.Bytes)/(1<<20))
	l.set("cache.entries", float64(after.cache.Entries))

	if len(pages.queueWait) > 0 {
		l.setN("sched.queue_wait_ms_p50", median(pages.queueWait), len(pages.queueWait))
		if p99, err := percentile(pages.queueWait, 0.99); err == nil {
			l.setN("sched.queue_wait_ms_p99", p99, len(pages.queueWait))
		}
		l.set("sched.batch_queries_mean", float64(pages.batchQueries)/float64(pages.answers))
		l.set("sched.dedup_ratio", float64(pages.deduped)/float64(pages.answers))
	}
	l.set("sched.batches", dc(before.batch.Batches, after.batch.Batches))
	l.set("sched.rejected", dc(before.batch.Rejected+before.batch.Shed, after.batch.Rejected+after.batch.Shed))
	l.set("engine.rows_scanned", after.metrics["gbmqo_exec_rows_scanned_total"]-before.metrics["gbmqo_exec_rows_scanned_total"])

	if n := len(pages.lat.plain) + len(pages.lat.traced); n > 0 {
		l.set("server.resp_kb_per_page", float64(pages.respBytes)/float64(n)/1024)
	}
	l.set("loadgen.trace_overhead_pct", pages.lat.overheadPct())
	if p99, err := percentile(msSamples(pages.lat.all()), 0.99); err == nil {
		l.setN("loadgen.op_ms_p99", p99, len(pages.lat.all()))
	}
	handler := msSamples(e.tr.durationsOf("server.handler"))
	if len(handler) > 0 {
		l.setN("server.handler_ms_p50", median(handler), len(handler))
		if p99, err := percentile(handler, 0.99); err == nil {
			l.setN("server.handler_ms_p99", p99, len(handler))
		}
	}
	if transport := e.tr.transportMs(); len(transport) > 0 {
		l.setN("server.transport_ms_p50", median(transport), len(transport))
	}
}

// transportMs is, per traced request, the round trip minus the handler span
// inside it: connection, kernel and net/http time on both sides.
func (t *tracer) transportMs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	handler := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Name == "server.handler" {
			handler[s.Req] = s.EndNs - s.StartNs
		}
	}
	var out []float64
	for _, s := range t.spans {
		if h, ok := handler[s.Req]; ok && s.Name == "http.roundtrip" {
			out = append(out, float64(s.EndNs-s.StartNs-h)/1e6)
		}
	}
	return out
}

// serveSetup runs the set-up c.setups times and keeps the last system.
func serveSetup(c config, o *outcome, spec serveSpec, tr *tracer) (*serveEnv, error) {
	seq := 0
	o.Prov.CacheBytes = spec.cacheBytes
	o.Prov.Clients = clients
	o.Prov.WarmUp = "every lattice query asked once over HTTP, inside set-up"
	return timeSetups(c, o, tr, func() (*serveEnv, error) {
		seq++
		return startServe(c, spec, tr, seq)
	}, (*serveEnv).stop)
}

// runServeHot serves a lattice that fits the cache: after the warm-up pass
// nearly every answer is an exact hit, so JSON decode and encode, the batch
// window and the cache probe are the whole latency and the executor idles.
// Its alt operation is the same pages asked in-process through DB.Submit.
func runServeHot(c config, tr *tracer) (*outcome, error) {
	o := newOutcome(c)
	spec := serveSpec{dims: 7, cacheBytes: 64 << 20}
	e, err := serveSetup(c, o, spec, tr)
	if err != nil {
		return nil, err
	}
	defer e.stop()

	alt, _ := e.runClients(c.seed, c.window(0.2), c.minAlt, e.submitPage)
	before := e.counters()
	tr.setOn(true)
	pages, elapsed := e.runClients(c.seed, c.window(0.8), c.minPages, func(cl *pageClient, page []int) { _ = e.httpPage(cl, page) })
	tr.setOn(false)
	after := e.counters()

	if err := e.finish(o, pages, alt, elapsed); err != nil {
		return nil, err
	}
	if err := altMetric(o, alt.lat.all()); err != nil {
		return nil, err
	}
	if !c.trace {
		return o, nil
	}
	l := o.Ledger
	e.layerMetrics(l, before, after, pages)
	l.set("server.http_overhead_ms_p50", l.vals["op_ms_p50"]-l.vals["alt_ms_p50"])
	l.set("loadgen.schedule_fnv", scheduleFNV(c.seed, batchInputs{}, len(e.queries), nil))
	if err := probeDatagen(c, l); err != nil {
		return nil, err
	}
	if err := probeCache(e.base, e.queries, spec.cacheBytes, l); err != nil {
		return nil, err
	}
	return o, probeSched(l)
}

// finish folds the phases' tallies into the outcome, runs the final check,
// and writes the op metrics.
func (e *serveEnv) finish(o *outcome, pages, alt *tally, elapsed time.Duration) error {
	for _, t := range []*tally{pages, alt} {
		if t != nil {
			o.add(t.opCount)
		}
	}
	if err := e.finalCheck(o); err != nil {
		return err
	}
	return opMetrics(o, pages.lat.all(), elapsed)
}
