package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gbmqo"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// The reference rendering: result sets boxed into [][]any and rendered by
// encoding/json, as the server answered before it encoded from columns. The
// direct encoder must match it byte for byte on every finite result.

type refTable struct {
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
	Rows    [][]any  `json:"rows"`
}

type refBatch struct {
	BatchQueries  int     `json:"batch_queries"`
	BatchRequests int     `json:"batch_requests"`
	Deduped       bool    `json:"deduped"`
	QueueWaitMS   float64 `json:"queue_wait_ms"`
	Origin        string  `json:"origin"`
	Partial       bool    `json:"partial,omitempty"`
	ShardsFailed  int     `json:"shards_failed,omitempty"`
}

type refAnswer struct {
	Result *refTable `json:"result,omitempty"`
	Batch  *refBatch `json:"batch,omitempty"`
	Error  string    `json:"error,omitempty"`
}

func refEncodeTable(t *gbmqo.Table) *refTable {
	out := &refTable{
		Columns: t.ColNames(),
		Types:   make([]string, t.NumCols()),
		Rows:    make([][]any, t.NumRows()),
	}
	for c := 0; c < t.NumCols(); c++ {
		out.Types[c] = t.Col(c).Type().String()
	}
	for r := 0; r < t.NumRows(); r++ {
		row := make([]any, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			row[c] = refEncodeValue(t.Col(c).Value(r))
		}
		out.Rows[r] = row
	}
	return out
}

func refEncodeValue(v table.Value) any {
	if v.Null {
		return nil
	}
	switch v.Typ {
	case table.TInt64:
		return v.I
	case table.TFloat64:
		return v.F
	case table.TString:
		return v.S
	default: // TDate
		return v.String()
	}
}

func refBatchOf(info gbmqo.BatchInfo) *refBatch {
	return &refBatch{
		BatchQueries:  info.BatchQueries,
		BatchRequests: info.BatchRequests,
		Deduped:       info.Deduped,
		QueueWaitMS:   float64(info.QueueWait) / float64(time.Millisecond),
		Origin:        info.Origin.String(),
		Partial:       info.Partial,
		ShardsFailed:  info.ShardsFailed,
	}
}

// refRender renders v exactly as the server's json.Encoder did.
func refRender(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

func refQueryPage(answers []gbmqo.PageAnswer) ([]byte, error) {
	out := make([]refAnswer, len(answers))
	for i, a := range answers {
		if a.Err != nil {
			out[i].Error = a.Err.Error()
			continue
		}
		out[i].Result, out[i].Batch = refEncodeTable(a.Table), refBatchOf(a.Info)
	}
	return refRender(map[string]any{"results": out})
}

func refSQLParts(parts []*gbmqo.Table, tags []string) ([]byte, error) {
	enc := make([]map[string]any, len(parts))
	for i := range parts {
		enc[i] = map[string]any{"tag": tags[i], "result": refEncodeTable(parts[i])}
	}
	return refRender(map[string]any{"parts": enc})
}

// checkEncoding renders t in every response shape through the direct
// encoder and through the reference, and requires the same bytes — or, for a
// result holding a non-finite float, errNonFinite where the reference fails.
func checkEncoding(t *testing.T, tbl *gbmqo.Table, info gbmqo.BatchInfo, tags []string) {
	t.Helper()
	_, refErr := refRender(refEncodeTable(tbl))
	finite := refErr == nil
	var unsupported *json.UnsupportedValueError
	if !finite && !errors.As(refErr, &unsupported) {
		t.Fatalf("reference rendering failed: %v", refErr)
	}

	enc := getEncoder()
	defer enc.release()
	page := []gbmqo.PageAnswer{{Table: tbl, Info: info}, {Err: errors.New("<bad> & \u2028")}, {Table: tbl, Info: info}}
	enc.queryPage(page)
	want := page
	if !finite {
		want = []gbmqo.PageAnswer{{Err: errNonFinite}, page[1], {Err: errNonFinite}}
	}
	ref, err := refQueryPage(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.buf, ref) {
		t.Fatalf("/query body differs\n got %s\nwant %s", enc.buf, ref)
	}

	enc.buf = enc.buf[:0]
	err = enc.sqlResult(tbl)
	if !finite {
		if !errors.Is(err, errNonFinite) {
			t.Fatalf("sql result over a non-finite float: err = %v, want errNonFinite", err)
		}
		return
	}
	if ref, _ = refRender(map[string]any{"result": refEncodeTable(tbl)}); err != nil || !bytes.Equal(enc.buf, ref) {
		t.Fatalf("/sql body differs (err %v)\n got %s\nwant %s", err, enc.buf, ref)
	}

	parts := make([]*gbmqo.Table, len(tags))
	for i := range parts {
		// Each part is a row subset, as SplitTagged gathers them.
		idx := make([]int32, 0, tbl.NumRows())
		for r := i; r < tbl.NumRows(); r += len(tags) {
			idx = append(idx, int32(r))
		}
		parts[i] = tbl.Gather(tags[i], idx)
	}
	enc.buf = enc.buf[:0]
	err = enc.sqlParts(parts, tags)
	if ref, _ = refSQLParts(parts, tags); err != nil || !bytes.Equal(enc.buf, ref) {
		t.Fatalf("/sql parts body differs (err %v)\n got %s\nwant %s", err, enc.buf, ref)
	}
}

// fuzzTable builds a four-row result from fuzz input: dictionary columns of
// every type (as key and MIN/MAX columns are) and measure columns (as
// COUNT/SUM/AVG are). Bit i of nulls makes row i%4 NULL in the dictionary
// columns (bits 0-3) or the measure columns (bits 4-7).
func fuzzTable(raw []byte, s string, x float64, n int64, nulls uint8) *gbmqo.Table {
	const rows = 4
	null := func(bit, r int) bool { return nulls&(1<<(bit+r)) != 0 }
	b := table.NewBuilder("fuzz", rows, 6)
	dict := func(name string, typ table.Type, vals [rows]table.Value) {
		c := b.Add(table.ColumnDef{Name: name, Typ: typ})
		for r, v := range vals {
			if null(0, r) {
				v = table.Null(typ)
			}
			b.SetValue(r, c, v)
		}
	}
	valid := make([]bool, rows)
	for r := range valid {
		valid[r] = !null(4, r)
	}
	str := string(raw)
	// The fuzzed string names a column too: names are escaped as values are.
	dict("s:"+s, table.TString, [rows]table.Value{table.Str(str), table.Str(s), table.Str(str + s), table.Str(s)})
	dict("f", table.TFloat64, [rows]table.Value{table.Float(x), table.Float(-x), table.Float(math.Nextafter(x, math.Inf(1))), table.Float(x)})
	dict("i", table.TInt64, [rows]table.Value{table.Int(n), table.Int(-n), table.Int(math.MinInt64), table.Int(math.MaxInt64)})
	dict("d", table.TDate, [rows]table.Value{table.Date(n), table.Date(n % 100000), table.Date(-1), table.Date(n)})
	table.AddMeasure(b, "count", []int64{n, 1, math.MaxInt64, math.MinInt64}, append([]bool(nil), valid...))
	table.AddMeasure(b, "sum", []float64{x, x / 3, x * 1e-7, -x}, append([]bool(nil), valid...))
	return b.Table()
}

// FuzzResultEncoding requires the direct encoder's bytes to equal
// encoding/json's for the same response, over arbitrary string bytes
// (invalid UTF-8, <>&, U+2028, control bytes), floats on each side of the
// 1e-6 and 1e21 format cutoffs, -0 and subnormals, int64 extremes, dates and
// NULLs. Its seed corpus is testdata/fuzz/FuzzResultEncoding.
func FuzzResultEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, s string, x float64, n int64, nulls uint8) {
		info := gbmqo.BatchInfo{
			BatchQueries:  int(nulls),
			BatchRequests: int(n & 0xffff),
			Deduped:       nulls&1 != 0,
			QueueWait:     time.Duration(n),
			Origin:        engine.SetOrigin(nulls % 5),
			Partial:       nulls&2 != 0,
			ShardsFailed:  int(nulls >> 4),
		}
		checkEncoding(t, fuzzTable(raw, s, x, n, nulls), info, []string{s, string(raw)})
	})
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, 1e20,
		1e21, math.Nextafter(1e21, 0), 1e100, -1e-100, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		123456789.123, 1e-10, 2.5e-300,
	} {
		got, ok := appendFloat(nil, f)
		want, err := json.Marshal(f)
		if !ok || err != nil || !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, %v; encoding/json %s, %v", f, got, ok, want, err)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendFloat(nil, f); ok {
			t.Errorf("appendFloat(%v) accepted a non-finite float", f)
		}
	}
}

// postRaw posts body to url and returns the status and the raw response
// body.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestResponsesMatchEncodingJSON: /query and /sql bodies are byte-identical
// to the encoding/json rendering of the same results — count, sum, min and
// max over the sales dataset's integer, string and date columns, a float SUM
// whose values cross both e-notation cutoffs, and a GROUPING SETS statement
// in its union and split shapes.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	db, ts := newTestServer(t)
	prices := "band,price\nlow,0.1\nlow,0.0000001\nmid,2.5\nhigh,3e21\n<&>,-0.5\nmid,\n"
	if _, err := db.RegisterCSV("prices", []gbmqo.ColumnDef{{Name: "band", Typ: gbmqo.String}, {Name: "price", Typ: gbmqo.Float64}}, strings.NewReader(prices)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv := New(db)

	pages := []queryRequest{
		{Table: "sales", Queries: []queryJSON{
			{Cols: []string{"store_region"}},
			{Cols: []string{"store_region", "sale_date"}, Aggs: []aggJSON{
				{Fn: "count", Col: "qty"}, {Fn: "sum", Col: "qty"}, {Fn: "min", Col: "sale_date"}, {Fn: "max", Col: "product_brand", As: "<max & brand>"},
			}},
			{Cols: []string{"channel", "promo_flag"}, Aggs: []aggJSON{{Fn: "min", Col: "qty"}, {Fn: "max", Col: "qty"}}},
			{Cols: []string{"channel"}, Aggs: []aggJSON{{Fn: "avg", Col: "qty"}, {Fn: "AVG", Col: "sale_date", As: "mean_day"}}},
			{Cols: []string{"no_such_col"}},
		}},
		{Table: "prices", Queries: []queryJSON{
			{Cols: []string{"band"}, Aggs: []aggJSON{{Fn: "sum", Col: "price"}, {Fn: "min", Col: "price"}, {Fn: "count"}, {Fn: "avg", Col: "price"}}},
		}},
	}
	for _, page := range pages {
		code, body := postRaw(t, ts.URL+"/query", page)
		if code != http.StatusOK {
			t.Fatalf("/query status %d: %s", code, body)
		}
		// The batch objects depend on timing; the reference re-renders the
		// ones the server sent, decoded.
		var sent struct {
			Results []struct {
				Batch *refBatch `json:"batch"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &sent); err != nil || len(sent.Results) != len(page.Queries) {
			t.Fatalf("decoding /query body (%v): %s", err, body)
		}
		want := make([]refAnswer, len(page.Queries))
		for i, q := range page.Queries {
			gq, err := srv.bindQuery(page.Table, q)
			if err == nil {
				var res *gbmqo.Table
				if res, _, err = db.Submit(ctx, page.Table, gq); err == nil {
					want[i] = refAnswer{Result: refEncodeTable(res), Batch: sent.Results[i].Batch}
					continue
				}
			}
			want[i].Error = err.Error()
		}
		ref, err := refRender(map[string]any{"results": want})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, ref) {
			t.Fatalf("/query body differs from encoding/json\n got %s\nwant %s", body, ref)
		}
	}

	for _, stmt := range []string{
		"SELECT store_region, sale_date, COUNT(*), SUM(qty), MIN(ship_mode), MAX(sale_date) FROM sales GROUP BY store_region, sale_date",
		"SELECT band, SUM(price), MAX(price) FROM prices GROUP BY band",
		"SELECT COUNT(*), SUM(qty) FROM sales GROUP BY GROUPING SETS ((store_state), (channel, promo_flag))",
		"SELECT AVG(qty), COUNT(*) FROM sales GROUP BY ROLLUP (store_region, channel)",
		"SELECT band, AVG(price) FROM prices GROUP BY band",
	} {
		res, err := db.SubmitSQL(ctx, stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		code, body := postRaw(t, ts.URL+"/sql", sqlRequest{SQL: stmt})
		ref, _ := refRender(map[string]any{"result": refEncodeTable(res)})
		if code != http.StatusOK || !bytes.Equal(body, ref) {
			t.Fatalf("/sql %s: status %d, body differs from encoding/json\n got %s\nwant %s", stmt, code, body, ref)
		}
		parts, tags, err := exec.SplitTagged(res)
		if err != nil {
			parts, tags = []*gbmqo.Table{res}, []string{""}
		}
		code, body = postRaw(t, ts.URL+"/sql", sqlRequest{SQL: stmt, Split: true})
		ref, _ = refSQLParts(parts, tags)
		if code != http.StatusOK || !bytes.Equal(body, ref) {
			t.Fatalf("/sql split %s: status %d, body differs from encoding/json\n got %s\nwant %s", stmt, code, body, ref)
		}
	}
}

// TestNonFiniteResultIsAnError: a SUM that overflows to +Inf, or sums a NaN,
// cannot be carried by JSON. /query answers that query with an error and
// keeps its siblings' results; /sql answers 500. Neither answers an empty
// 200.
func TestNonFiniteResultIsAnError(t *testing.T) {
	db := gbmqo.Open(nil)
	csv := "k,x\na,1e308\na,1e308\nb,NaN\nc,2.5\n"
	if _, err := db.RegisterCSV("floats", []gbmqo.ColumnDef{{Name: "k", Typ: gbmqo.String}, {Name: "x", Typ: gbmqo.Float64}}, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()

	code, body := postRaw(t, ts.URL+"/query", queryRequest{Table: "floats", Queries: []queryJSON{
		{Cols: []string{"k"}, Aggs: []aggJSON{{Fn: "sum", Col: "x"}}},
		{Cols: []string{"k"}},
	}})
	var out struct {
		Results []struct {
			Result *refTable `json:"result"`
			Error  string    `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); code != http.StatusOK || err != nil || len(out.Results) != 2 {
		t.Fatalf("/query: status %d, decode %v, body %q", code, err, body)
	}
	if r := out.Results[0]; r.Error != errNonFinite.Error() || r.Result != nil {
		t.Fatalf("non-finite SUM answered %+v, want error %q", r, errNonFinite)
	}
	if r := out.Results[1]; r.Error != "" || r.Result == nil || len(r.Result.Rows) != 3 {
		t.Fatalf("sibling query answered %+v, want its 3 groups", r)
	}

	code, body = postRaw(t, ts.URL+"/sql", sqlRequest{SQL: "SELECT k, SUM(x) FROM floats GROUP BY k"})
	var sqlOut map[string]string
	if err := json.Unmarshal(body, &sqlOut); code != http.StatusInternalServerError || err != nil || sqlOut["error"] != errNonFinite.Error() {
		t.Fatalf("/sql: status %d, body %q; want 500 with the non-finite error", code, body)
	}
}
