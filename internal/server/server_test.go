package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo"
	"gbmqo/internal/exec"
)

func newTestServer(t *testing.T) (*gbmqo.DB, *httptest.Server) {
	t.Helper()
	db := gbmqo.Open(nil)
	tbl, err := gbmqo.GenerateDataset("sales", 5000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(tbl)
	db.StartBatching(gbmqo.BatchOptions{Exec: gbmqo.QueryOptions{SharedScan: true}})
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(func() {
		ts.Close()
		db.StopBatching()
	})
	return db, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func salesCol(t *testing.T, db *gbmqo.DB) string {
	t.Helper()
	tbl, ok := db.Table("sales")
	if !ok {
		t.Fatal("sales not registered")
	}
	return tbl.Col(0).Name()
}

func TestQueryEndpoint(t *testing.T) {
	db, ts := newTestServer(t)
	col := salesCol(t, db)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"table": "sales",
		"queries": []map[string]any{
			{"cols": []string{col}},
			{"cols": []string{col}, "aggs": []map[string]any{{"fn": "count", "as": "n"}}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	results := out["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	tbl, _ := db.Table("sales")
	want := tbl.Col(0).DistinctCount()
	for i, raw := range results {
		r := raw.(map[string]any)
		if e, ok := r["error"]; ok && e != nil {
			t.Fatalf("query %d error: %v", i, e)
		}
		res := r["result"].(map[string]any)
		if rows := len(res["rows"].([]any)); rows != want {
			t.Fatalf("query %d rows = %d, want %d", i, rows, want)
		}
		if r["batch"] == nil {
			t.Fatalf("query %d missing batch info", i)
		}
	}
	// The alias must be honored.
	cols := results[1].(map[string]any)["result"].(map[string]any)["columns"].([]any)
	found := false
	for _, c := range cols {
		if c == "n" {
			found = true
		}
	}
	if !found {
		t.Fatalf("alias n missing from %v", cols)
	}
}

func TestQueryEndpointPerQueryErrors(t *testing.T) {
	db, ts := newTestServer(t)
	col := salesCol(t, db)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"table": "sales",
		"queries": []map[string]any{
			{"cols": []string{"no_such_col"}},
			{"cols": []string{col}, "aggs": []map[string]any{{"fn": "median", "col": col}}},
			{"cols": []string{col}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	results := out["results"].([]any)
	if e := results[0].(map[string]any)["error"]; e == nil || e == "" {
		t.Fatal("unknown column must error")
	}
	if e := results[1].(map[string]any)["error"]; e == nil || !strings.Contains(e.(string), "median") {
		t.Fatalf("unknown aggregate error = %v", e)
	}
	if e, ok := results[2].(map[string]any)["error"]; ok && e != nil {
		t.Fatalf("valid query alongside bad ones failed: %v", e)
	}
}

func TestSQLEndpointAndSplit(t *testing.T) {
	db, ts := newTestServer(t)
	tbl, _ := db.Table("sales")
	c0, c1 := tbl.Col(0).Name(), tbl.Col(1).Name()
	stmt := "SELECT COUNT(*) FROM sales GROUP BY GROUPING SETS ((" + c0 + "), (" + c1 + "))"
	resp, out := postJSON(t, ts.URL+"/sql", map[string]any{"sql": stmt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	res := out["result"].(map[string]any)
	cols := res["columns"].([]any)
	if cols[len(cols)-1] != "grp_tag" {
		t.Fatalf("union shape missing grp_tag: %v", cols)
	}
	// The same statement split into per-set parts.
	resp, out = postJSON(t, ts.URL+"/sql", map[string]any{"sql": stmt, "split": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("split status = %d", resp.StatusCode)
	}
	parts := out["parts"].([]any)
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	tags := map[string]bool{}
	for _, p := range parts {
		pm := p.(map[string]any)
		tags[pm["tag"].(string)] = true
		pcols := pm["result"].(map[string]any)["columns"].([]any)
		for _, c := range pcols {
			if c == "grp_tag" {
				t.Fatal("split part still carries grp_tag")
			}
		}
	}
	if !tags["("+c0+")"] || !tags["("+c1+")"] {
		t.Fatalf("tags = %v", tags)
	}
	// Invalid SQL surfaces as 422.
	resp, _ = postJSON(t, ts.URL+"/sql", map[string]any{"sql": "SELEC nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad sql status = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	db, ts := newTestServer(t)
	col := salesCol(t, db)
	postJSON(t, ts.URL+"/query", map[string]any{
		"table":   "sales",
		"queries": []map[string]any{{"cols": []string{col}}},
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"# TYPE gbmqo_sched_submissions_total counter",
		"# TYPE gbmqo_sched_batch_queries histogram",
		"gbmqo_exec_runs_total",
		"# TYPE gbmqo_sched_queue_len gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzAndTables(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}
	resp, err = http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tl map[string]any
	json.NewDecoder(resp.Body).Decode(&tl)
	resp.Body.Close()
	tables := tl["tables"].([]any)
	if len(tables) != 1 || tables[0].(map[string]any)["name"] != "sales" {
		t.Fatalf("tables = %v", tl)
	}
}

func TestBadRequestBodies(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{"table": "sales"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing queries status = %d: %v", resp.StatusCode, out)
	}
}

// TestServeLoad hammers the server with concurrent clients — the CI
// race-detector witness that the whole stack (HTTP handler, scheduler
// admission, engine runs, metrics scrapes) is safe under load. Every
// response must be well-formed and every query answered or attributed an
// error; at the end each one-query page must have made exactly one run.
func TestServeLoad(t *testing.T) {
	db, ts := newTestServer(t)
	tbl, _ := db.Table("sales")
	var cols []string
	for i := 0; i < tbl.NumCols() && i < 3; i++ {
		if tbl.Col(i).Type().String() != "FLOAT" {
			cols = append(cols, tbl.Col(i).Name())
		}
	}
	if len(cols) < 2 {
		t.Skip("sales schema too narrow for the load mix")
	}
	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := map[string]any{"cols": []string{cols[(w+i)%len(cols)]}}
				if i%3 == 0 {
					q["cols"] = []string{cols[i%len(cols)], cols[(i+1)%len(cols)]}
				}
				body, _ := json.Marshal(map[string]any{
					"table":   "sales",
					"queries": []map[string]any{q},
				})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out map[string]any
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d, decode err %v", w, resp.StatusCode, err)
					return
				}
				r := out["results"].([]any)[0].(map[string]any)
				if e, ok := r["error"]; ok && e != nil {
					t.Errorf("worker %d: query error %v", w, e)
					return
				}
				if i%10 == 0 { // interleave metrics scrapes with traffic
					mr, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					mr.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	st, ok := db.BatchStats()
	if !ok {
		t.Fatal("batching never started")
	}
	if st.Submitted != workers*perWorker {
		t.Fatalf("submitted = %d, want %d", st.Submitted, workers*perWorker)
	}
	if st.Batches != st.Submitted-st.ProbeAnswers {
		t.Fatalf("stats = %+v: want one run per one-query page the probe left", st)
	}
}

// holdRuns parks every page run at its start until the returned release is
// called (at the latest when the test ends), so tests can fill the
// scheduler's in-flight bound deterministically.
func holdRuns(t *testing.T) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	exec.Testing.SetFailPoint(func(site string) {
		if site == "sched.run" {
			<-gate
		}
	})
	t.Cleanup(func() {
		release()
		exec.Testing.ClearFailPoint()
	})
	return release
}

// TestServerBackpressure429 drives the scheduler into overload and asserts
// the transport mapping: a fully rejected body answers 429 with a
// Retry-After hint, and a client that honors the hint succeeds once the
// runs in flight finish.
func TestServerBackpressure429(t *testing.T) {
	db := gbmqo.Open(nil)
	tbl, err := gbmqo.GenerateDataset("sales", 2000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(tbl)
	// Two submissions fill the in-flight bound; their runs are held so the
	// third request observes the overload deterministically.
	release := holdRuns(t)
	db.StartBatching(gbmqo.BatchOptions{
		MaxQueue: 2,
		Exec:     gbmqo.QueryOptions{SharedScan: true},
	})
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(func() {
		ts.Close()
		db.StopBatching()
	})
	col0, col1 := tbl.Col(0).Name(), tbl.Col(1).Name()

	var wg sync.WaitGroup
	for _, col := range []string{col0, col1} {
		wg.Add(1)
		go func(col string) {
			defer wg.Done()
			postJSON(t, ts.URL+"/query", map[string]any{
				"table": "sales", "queries": []map[string]any{{"cols": []string{col}}},
			})
		}(col)
	}
	// Wait until both submissions are in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, ok := db.BatchStats(); ok && st.QueueLen >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"table": "sales", "queries": []map[string]any{{"cols": []string{col0, col1}}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %v)", resp.StatusCode, out)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	if out["error"] == nil {
		t.Fatal("429 body missing error")
	}

	// A client honoring the hint retries after the advertised delay and
	// eventually lands once the held runs finish.
	release()
	var ok bool
	for attempt := 0; attempt < 5; attempt++ {
		time.Sleep(time.Duration(secs) * time.Second)
		resp, out = postJSON(t, ts.URL+"/query", map[string]any{
			"table": "sales", "queries": []map[string]any{{"cols": []string{col0, col1}}},
		})
		if resp.StatusCode == http.StatusOK {
			ok = true
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("retry status = %d, want 200 or 429", resp.StatusCode)
		}
		if secs, err = strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Fatalf("retry Retry-After = %q", resp.Header.Get("Retry-After"))
		}
	}
	if !ok {
		t.Fatal("client honoring Retry-After never succeeded")
	}
	r := out["results"].([]any)[0].(map[string]any)
	if e, present := r["error"]; present && e != nil {
		t.Fatalf("retried query error: %v", e)
	}
	wg.Wait()
	st, _ := db.BatchStats()
	if st.Rejected == 0 {
		t.Fatalf("stats = %+v, want Rejected > 0", st)
	}
}

// TestServerHealthzDraining: /healthz flips to 503 status "draining" once
// shutdown begins, via the explicit server flag or the DB's own drain state.
func TestServerHealthzDraining(t *testing.T) {
	db := gbmqo.Open(nil)
	tbl, err := gbmqo.GenerateDataset("sales", 500, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(tbl)
	db.StartBatching(gbmqo.BatchOptions{})
	srv := New(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		db.StopBatching()
	})

	get := func() (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	resp, h := get()
	if resp.StatusCode != http.StatusOK || h["ok"] != true || h["status"] != "ok" {
		t.Fatalf("healthy: status=%d body=%v", resp.StatusCode, h)
	}

	srv.SetDraining()
	resp, h = get()
	if resp.StatusCode != http.StatusServiceUnavailable || h["ok"] != false || h["status"] != "draining" {
		t.Fatalf("draining: status=%d body=%v", resp.StatusCode, h)
	}

	// The DB's drain state is observed too, without SetDraining.
	db2 := gbmqo.Open(nil)
	db2.Register(tbl)
	db2.StartBatching(gbmqo.BatchOptions{})
	srv2 := New(db2)
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := db2.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	resp2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: status=%d, want 503", resp2.StatusCode)
	}
}

// TestServerHandlerPanicContained: a panic inside the handler chain answers
// that one request with a 500 and leaves the server serving.
func TestServerHandlerPanicContained(t *testing.T) {
	db, ts := newTestServer(t)
	var fired atomic.Bool
	exec.Testing.SetFailPoint(func(site string) {
		if site == "server.handler" && fired.CompareAndSwap(false, true) {
			panic("injected handler fault")
		}
	})
	defer exec.Testing.SetFailPoint(nil)

	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "injected handler fault") {
		t.Fatalf("error = %v, want the panic value", out["error"])
	}

	// The next request is served normally.
	col := salesCol(t, db)
	resp2, out2 := postJSON(t, ts.URL+"/query", map[string]any{
		"table": "sales", "queries": []map[string]any{{"cols": []string{col}}},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d (body %v)", resp2.StatusCode, out2)
	}
}

// TestServerHealthzBreakers: armed circuit breakers appear in /healthz.
func TestServerHealthzBreakers(t *testing.T) {
	db, ts := newTestServer(t)
	db.EnableBreakers(gbmqo.BreakerConfig{})
	col := salesCol(t, db)
	if resp, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"table": "sales", "queries": []map[string]any{{"cols": []string{col}}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	brs, ok := h["breakers"].([]any)
	if !ok || len(brs) == 0 {
		t.Fatalf("healthz breakers = %v, want sales breaker", h["breakers"])
	}
	b := brs[0].(map[string]any)
	if b["table"] != "sales" || b["state"] != "closed" {
		t.Fatalf("breaker = %v, want sales closed", b)
	}
}

// pageDB is a cached lineitem DB whose cache holds {l_returnflag} and
// {l_returnflag, l_linestatus} under COUNT(*) and {l_returnflag} under the
// returned AVG(l_quantity), with the page scheduler started.
func pageDB(t *testing.T) (*gbmqo.DB, gbmqo.Agg) {
	t.Helper()
	li, err := gbmqo.GenerateDataset("lineitem", 4000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := gbmqo.Open(&gbmqo.Config{CacheBytes: 32 << 20})
	db.Register(li)
	avg := gbmqo.Agg{Kind: gbmqo.AggAvg, Col: li.ColIndex("l_quantity"), Name: "avg_qty"}
	warm := []gbmqo.GroupQuery{
		{Cols: []string{"l_returnflag"}},
		{Cols: []string{"l_returnflag", "l_linestatus"}},
		{Cols: []string{"l_returnflag"}, Aggs: []gbmqo.Agg{avg}},
	}
	for _, q := range warm {
		if _, _, err := db.ExecuteQueries("lineitem", []gbmqo.GroupQuery{q}, gbmqo.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	db.StartBatching(gbmqo.BatchOptions{})
	t.Cleanup(db.StopBatching)
	return db, avg
}

// TestPageDoorMatchesSubmit: a page answers every position exactly as that
// query's own Submit does — the same table, byte for byte through the
// response encoder, or the same error — while its probe answers need no run
// and its misses share one run and one plan.
func TestPageDoorMatchesSubmit(t *testing.T) {
	db, avg := pageDB(t)
	solo, _ := pageDB(t)
	page := []gbmqo.GroupQuery{
		{Cols: []string{"l_returnflag"}},                         // exact hit
		{Cols: []string{"l_linestatus"}},                         // roll-up of the cached pair
		{Cols: []string{"l_shipmode"}},                           // miss
		{Cols: []string{"l_shipmode"}},                           // the same miss again
		{Cols: []string{"l_shipinstruct"}},                       // a second miss
		{Cols: []string{"no_such_col"}},                          // refused
		{Cols: []string{"l_returnflag"}, Aggs: []gbmqo.Agg{avg}}, // AVG hit
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := db.SubmitPage(ctx, "lineitem", page)
	if len(got) != len(page) {
		t.Fatalf("%d answers for %d queries", len(got), len(page))
	}
	encode := func(tb *gbmqo.Table) string {
		enc := getEncoder()
		defer enc.release()
		if err := enc.table(tb); err != nil {
			t.Fatal(err)
		}
		return string(enc.buf)
	}
	for i, q := range page {
		want, _, wantErr := solo.Submit(ctx, "lineitem", q)
		a := got[i]
		if (a.Err == nil) != (wantErr == nil) || (wantErr != nil && a.Err.Error() != wantErr.Error()) {
			t.Fatalf("query %d: page error %v, Submit error %v", i, a.Err, wantErr)
		}
		if wantErr == nil && encode(a.Table) != encode(want) {
			t.Errorf("query %d: page and Submit tables encode differently", i)
		}
	}

	for i, origin := range map[int]gbmqo.SetOrigin{0: gbmqo.OriginCacheHit, 1: gbmqo.OriginCacheAncestor, 6: gbmqo.OriginCacheHit} {
		if info := got[i].Info; info.Origin != origin || info.QueueWait != 0 || info.BatchQueries != 1 {
			t.Errorf("query %d: info %+v, want a probe answer of origin %v", i, info, origin)
		}
	}
	for _, i := range []int{2, 3, 4} {
		info := got[i].Info
		if info.BatchQueries != 2 || info.BatchRequests != 3 || info.Origin != gbmqo.OriginComputed || info.Deduped != (i == 3) {
			t.Errorf("query %d: info %+v, want one run of 2 queries and 3 requests", i, info)
		}
	}
}

// TestQueryPageRejections pins uniformReject on multi-query pages: a page
// the scheduler turns away whole answers 429 with Retry-After (503 while
// draining), and a page only partly turned away answers 200 with the
// rejections inline.
func TestQueryPageRejections(t *testing.T) {
	db := gbmqo.Open(nil)
	tbl, err := gbmqo.GenerateDataset("sales", 2000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(tbl)
	db.StartBatching(gbmqo.BatchOptions{MaxQueue: 2})
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(func() {
		ts.Close()
		db.StopBatching()
	})
	page := func(cols ...string) map[string]any {
		qs := make([]map[string]any, len(cols))
		for i, c := range cols {
			qs[i] = map[string]any{"cols": []string{c}}
		}
		return map[string]any{"table": "sales", "queries": qs}
	}
	c := func(i int) string { return tbl.Col(i).Name() }
	release := holdRuns(t)
	waitQueued := func(n int) {
		t.Helper()
		for i := 0; ; i++ {
			if st, _ := db.BatchStats(); st.QueueLen == n {
				return
			}
			if i > 2000 {
				t.Fatalf("queue never reached %d", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// post sends a page from another goroutine; its reply is read on the
	// test's own.
	post := func(body map[string]any) <-chan *http.Response {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan *http.Response, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
			}
			ch <- resp
		}()
		return ch
	}

	// One query's run is held; of the next page's two, the first takes the
	// last slot in flight and the second is turned away.
	parked := post(page(c(0)))
	waitQueued(1)
	mixed := post(page(c(1), c(2)))
	waitQueued(2)

	resp, out := postJSON(t, ts.URL+"/query", page(c(2), c(3)))
	if resp.StatusCode != http.StatusTooManyRequests || out["error"] == nil {
		t.Fatalf("all-rejected page: status %d body %v, want 429 with an error", resp.StatusCode, out)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}

	release()
	for _, ch := range []<-chan *http.Response{parked, mixed} {
		resp = <-ch
		if resp == nil {
			t.FailNow()
		}
		defer resp.Body.Close()
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed page: status %d, want 200", resp.StatusCode)
	}
	var mixedOut map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mixedOut); err != nil {
		t.Fatal(err)
	}
	results := mixedOut["results"].([]any)
	if e, ok := results[0].(map[string]any)["error"]; ok && e != nil {
		t.Fatalf("admitted query of the mixed page failed: %v", e)
	}
	if e, _ := results[1].(map[string]any)["error"].(string); !strings.Contains(e, "overloaded") {
		t.Fatalf("rejected query of the mixed page: error %q, want the overload inline", e)
	}

	if err := db.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, out := postJSON(t, ts.URL+"/query", page(c(0), c(1))); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("page while draining: status %d body %v, want 503", resp.StatusCode, out)
	}
}
