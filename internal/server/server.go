// Package server is the HTTP/JSON front-end that turns the GB-MQO library
// into a concurrent query server: every request body is a page of Group By
// queries, handed to the DB's page scheduler in one call, so the page's
// misses run as one multi-query plan, and concurrent HTTP clients asking the
// same grouping share its computation through the result cache.
// Observability rides along: /metrics exposes the scheduler, cache and
// governance counters in Prometheus text format, and /debug/vars serves the
// Go runtime's expvar variables.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gbmqo"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// Server serves Group By queries over HTTP on top of a DB whose tables are
// already registered. Schema changes (Register, CreateIndex) must happen
// before the server starts taking traffic.
type Server struct {
	db *gbmqo.DB
	// MaxBody bounds request bodies (default 1 MiB).
	MaxBody int64
	// Timeout bounds one request's Group By work when the client sent no
	// timeout_ms (default 30s).
	Timeout time.Duration

	// draining flips when graceful shutdown begins: /healthz turns 503 so
	// load balancers stop routing while in-flight work finishes.
	draining atomic.Bool
}

// New wraps db in a Server with defaults.
func New(db *gbmqo.DB) *Server {
	return &Server{db: db, MaxBody: 1 << 20, Timeout: 30 * time.Second}
}

// SetDraining marks the server as draining for shutdown: /healthz reports
// status "draining" with 503 so load balancers eject this instance while
// in-flight requests complete.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Draining reports whether graceful shutdown has begun (set explicitly or
// observed from the DB's scheduler).
func (s *Server) Draining() bool { return s.draining.Load() || s.db.Draining() }

// Handler routes the server's endpoints. Every handler runs under a recovery
// middleware: a panic is contained to its request and answered with a 500
// instead of killing the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /sql", s.handleSQL)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return s.contain(mux)
}

// contain is the per-request panic boundary. The failpoint lets the chaos
// harness inject handler-level faults and assert the 500 path.
func (s *Server) contain(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if pnc := recover(); pnc != nil {
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", pnc))
			}
		}()
		exec.Testing.Fire("server.handler")
		next.ServeHTTP(w, r)
	})
}

// retryAfterHeader sets Retry-After from a duration hint: whole seconds,
// rounded up, at least 1 (the header has no sub-second form).
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// rejectStatus maps a scheduler rejection to its HTTP form: overload
// (ErrQueueFull / OverloadError) → 429 with a Retry-After hint, shutdown
// (ErrDraining / ErrBatcherClosed) → 503. ok is false for every other error.
func rejectStatus(err error) (code int, retryAfter time.Duration, ok bool) {
	var ov *gbmqo.OverloadError
	switch {
	case errors.As(err, &ov):
		return http.StatusTooManyRequests, ov.RetryAfter, true
	case errors.Is(err, gbmqo.ErrQueueFull):
		return http.StatusTooManyRequests, 0, true
	case errors.Is(err, gbmqo.ErrDraining), errors.Is(err, gbmqo.ErrBatcherClosed):
		return http.StatusServiceUnavailable, 0, true
	}
	return 0, 0, false
}

// aggJSON is one aggregate in a query request.
type aggJSON struct {
	// Fn is count, sum, avg, min or max; count with an empty Col is
	// COUNT(*).
	Fn string `json:"fn"`
	// Col is the source column name.
	Col string `json:"col,omitempty"`
	// As overrides the output column name.
	As string `json:"as,omitempty"`
}

// queryJSON is one Group By request.
type queryJSON struct {
	// Cols are the grouping column names (non-empty).
	Cols []string `json:"cols"`
	// Aggs defaults to COUNT(*).
	Aggs []aggJSON `json:"aggs,omitempty"`
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Table     string      `json:"table"`
	Queries   []queryJSON `json:"queries"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Table == "" || len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "table and queries are required")
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	// The body is one page: its queries are probed together and its misses
	// run at once as one plan.
	qs := make([]gbmqo.GroupQuery, len(req.Queries))
	var bindErrs []error
	for i, q := range req.Queries {
		gq, err := s.bindQuery(req.Table, q)
		if err != nil {
			if bindErrs == nil {
				bindErrs = make([]error, len(qs))
			}
			bindErrs[i] = err // qs[i] stays empty: SubmitPage refuses it
			continue
		}
		qs[i] = gq
	}
	out := s.db.SubmitPage(ctx, req.Table, qs)
	for i, err := range bindErrs {
		if err != nil {
			out[i] = gbmqo.PageAnswer{Err: err}
		}
	}
	// When every query in the body was turned away by backpressure or
	// shutdown, answer with the transport-level status (429 + Retry-After, or
	// 503) so clients and load balancers can react without parsing bodies.
	// Mixed outcomes keep the 200-with-inline-errors shape: partial results
	// are still results.
	if code, retryAfter, all := uniformReject(out); all {
		if retryAfter > 0 {
			retryAfterHeader(w, retryAfter)
		}
		httpError(w, code, out[0].Err.Error())
		return
	}
	enc := getEncoder()
	defer enc.release()
	enc.queryPage(out)
	writeBody(w, http.StatusOK, enc.buf)
}

// uniformReject reports whether every query failed with a scheduler
// rejection mapping to the same HTTP status; retryAfter is the largest hint.
func uniformReject(answers []gbmqo.PageAnswer) (code int, retryAfter time.Duration, all bool) {
	if len(answers) == 0 {
		return 0, 0, false
	}
	for _, a := range answers {
		if a.Err == nil {
			return 0, 0, false
		}
		c, ra, ok := rejectStatus(a.Err)
		if !ok || (code != 0 && c != code) {
			return 0, 0, false
		}
		code = c
		if ra > retryAfter {
			retryAfter = ra
		}
	}
	return code, retryAfter, true
}

// sqlRequest is the POST /sql body.
type sqlRequest struct {
	SQL string `json:"sql"`
	// Split returns the GROUPING SETS union split back into one table per
	// grouping set (keyed by its Grp-Tag) instead of the union shape.
	Split     bool `json:"split,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	var req sqlRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, "sql is required")
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	res, err := s.db.SubmitSQL(ctx, req.SQL)
	if err != nil {
		if code, retryAfter, ok := rejectStatus(err); ok {
			if retryAfter > 0 {
				retryAfterHeader(w, retryAfter)
			}
			httpError(w, code, err.Error())
			return
		}
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	enc := getEncoder()
	defer enc.release()
	if req.Split {
		parts, tags, serr := exec.SplitTagged(res)
		if serr != nil {
			// No grp_tag column: a plain result splits into itself.
			parts, tags = []*gbmqo.Table{res}, []string{""}
		}
		err = enc.sqlParts(parts, tags)
	} else {
		err = enc.sqlResult(res)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, enc.buf)
}

// appendRequest is the POST /append body: rows of JSON cells in schema
// order. Cells bind by column type — numbers to BIGINT/FLOAT/DATE (days since
// epoch), strings to VARCHAR, null to NULL of the column's type.
type appendRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req appendRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Table == "" || len(req.Rows) == 0 {
		httpError(w, http.StatusBadRequest, "table and rows are required")
		return
	}
	t, ok := s.db.Table(req.Table)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown table %q", req.Table))
		return
	}
	rows := make([][]table.Value, len(req.Rows))
	for ri, raw := range req.Rows {
		if len(raw) != t.NumCols() {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("row %d has %d values, want %d", ri, len(raw), t.NumCols()))
			return
		}
		row := make([]table.Value, len(raw))
		for ci, cell := range raw {
			v, err := bindValue(cell, t.Col(ci).Type())
			if err != nil {
				httpError(w, http.StatusBadRequest,
					fmt.Sprintf("row %d column %q: %v", ri, t.Col(ci).Name(), err))
				return
			}
			row[ci] = v
		}
		rows[ri] = row
	}
	rep, err := s.db.Append(req.Table, rows)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, map[string]any{
		"table":       rep.Table,
		"rows":        rep.Rows,
		"total_rows":  rep.TotalRows,
		"version":     rep.Version,
		"delta":       rep.Delta,
		"refreshed":   rep.Refreshed,
		"dropped":     rep.Dropped,
		"invalidated": rep.Invalidated,
		"refresh_ms":  float64(rep.RefreshWall) / float64(time.Millisecond),
	})
}

// bindValue converts one JSON cell to a typed table value. JSON numbers
// arrive as float64; integral columns require an integral value.
func bindValue(cell any, typ table.Type) (table.Value, error) {
	if cell == nil {
		return table.Null(typ), nil
	}
	switch c := cell.(type) {
	case float64:
		switch typ {
		case table.TFloat64:
			return table.Float(c), nil
		case table.TInt64, table.TDate:
			i := int64(c)
			if float64(i) != c {
				return table.Value{}, fmt.Errorf("non-integral value %v in %s column", c, typ)
			}
			if typ == table.TDate {
				return table.Date(i), nil
			}
			return table.Int(i), nil
		}
		return table.Value{}, fmt.Errorf("number in %s column", typ)
	case string:
		if typ != table.TString {
			return table.Value{}, fmt.Errorf("string in %s column", typ)
		}
		return table.Str(c), nil
	}
	return table.Value{}, fmt.Errorf("unsupported JSON value %T", cell)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.db.WriteMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	draining := s.Draining()
	status := "ok"
	if draining {
		status = "draining"
	}
	resp := map[string]any{"ok": !draining, "status": status, "tables": len(s.db.Tables())}
	// Detailed sections ("batching", "appends", "breakers", "durability"),
	// each absent when it has nothing to report.
	for key, detail := range s.db.HealthSections() {
		resp[key] = detail
	}
	if draining {
		// 503 while draining: load balancers stop routing, but the body
		// still tells operators exactly where the drain stands.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	type tbl struct {
		Name string   `json:"name"`
		Rows int      `json:"rows"`
		Cols []string `json:"cols"`
	}
	var out []tbl
	for _, name := range s.db.Tables() {
		t, _ := s.db.Table(name)
		out = append(out, tbl{Name: name, Rows: t.NumRows(), Cols: t.ColNames()})
	}
	writeJSON(w, map[string]any{"tables": out})
}

// bindQuery turns a wire query into a GroupQuery, resolving aggregate column
// names against the table (grouping columns are resolved by DB.Submit).
func (s *Server) bindQuery(tableName string, q queryJSON) (gbmqo.GroupQuery, error) {
	gq := gbmqo.GroupQuery{Cols: q.Cols}
	if len(q.Aggs) == 0 {
		return gq, nil
	}
	t, ok := s.db.Table(tableName)
	if !ok {
		return gq, fmt.Errorf("unknown table %q", tableName)
	}
	for _, a := range q.Aggs {
		fn := strings.ToLower(a.Fn)
		if fn == "count" && a.Col == "" {
			ag := gbmqo.CountStar()
			if a.As != "" {
				ag.Name = a.As
			}
			gq.Aggs = append(gq.Aggs, ag)
			continue
		}
		ord := -1
		for i := 0; i < t.NumCols(); i++ {
			if strings.EqualFold(t.Col(i).Name(), a.Col) {
				ord = i
				break
			}
		}
		if ord < 0 {
			return gq, fmt.Errorf("table %q has no column %q", tableName, a.Col)
		}
		ag := gbmqo.Agg{Col: ord, Name: fn + "_" + strings.ToLower(a.Col)}
		switch fn {
		case "count":
			ag.Kind = gbmqo.AggCount
		case "sum":
			ag.Kind = gbmqo.AggSum
		case "avg":
			ag.Kind = gbmqo.AggAvg
		case "min":
			ag.Kind = gbmqo.AggMin
		case "max":
			ag.Kind = gbmqo.AggMax
		default:
			return gq, fmt.Errorf("unknown aggregate %q (want count, sum, avg, min, max)", a.Fn)
		}
		if a.As != "" {
			ag.Name = a.As
		}
		gq.Aggs = append(gq.Aggs, ag)
	}
	return gq, nil
}

// requestContext bounds one request's work: the client's timeout_ms if sent,
// the server default otherwise, joined with the connection's context so a
// dropped client cancels its page run.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.Timeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
