package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"gbmqo"
)

// fuzzDB is a small in-memory DB over one table with a column of each type:
// k BIGINT, s VARCHAR, f FLOAT, d DATE.
func fuzzDB() *gbmqo.DB {
	tbl := gbmqo.NewTable("t", []gbmqo.ColumnDef{
		{Name: "k", Typ: gbmqo.Int64}, {Name: "s", Typ: gbmqo.String},
		{Name: "f", Typ: gbmqo.Float64}, {Name: "d", Typ: gbmqo.Date},
	})
	for i := 0; i < 40; i++ {
		tbl.AppendRow(gbmqo.IntVal(int64(i%5)), gbmqo.StrVal("s"+strconv.Itoa(i%3)),
			gbmqo.FloatVal(float64(i)/4), gbmqo.DateVal(int64(18000+i%7)))
	}
	db := gbmqo.Open(nil)
	db.Register(tbl)
	db.StartBatching(gbmqo.BatchOptions{})
	return db
}

// FuzzQueryRequest posts each input as the body of /query and of /append on
// a fresh small DB. The handlers must never panic, a malformed body must get
// a 4xx and never a 5xx, and every 200 body must parse as JSON. Seeds
// (testdata/fuzz/FuzzQueryRequest) include a query with duplicate aggregate
// names, AVG over each column type, and an append row of the wrong width.
func FuzzQueryRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		db := fuzzDB()
		defer db.StopBatching()
		h := New(db).Handler()
		for _, path := range []string{"/query", "/append"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
			}
			if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s answered 200 with a body that is not JSON: %q", path, rec.Body)
			}
		}
	})
}
