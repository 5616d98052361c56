package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gbmqo"
	"gbmqo/internal/loadgen"
)

// BenchmarkServeHotPage asks serve_hot's query lattice (lineitem, 100 000
// rows, up to 3 of its low-NDV columns) as consecutive 8-query /query pages,
// round robin, straight through the handler with no network. Every answer is
// a cache hit, so what it times is request decode, the probe and the response
// encode. Run it with -cpuprofile for the handler's CPU split (EXPERIMENTS.md,
// "Serving note — encode from columns").
func BenchmarkServeHotPage(b *testing.B) {
	t, err := gbmqo.GenerateDataset("lineitem", 100000, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	db := gbmqo.Open(&gbmqo.Config{CacheBytes: 64 << 20, Seed: 1})
	db.Register(t)
	db.StartBatching(gbmqo.BatchOptions{})
	defer db.StopBatching()
	qs := loadgen.LatticeWorkload(t.Name(), loadgen.PickGroupCols(t, 7, 1000), 3, nil)
	var pages [][]byte
	for lo := 0; lo < len(qs); lo += 8 {
		var page []queryJSON
		for _, q := range qs[lo:min(lo+8, len(qs))] {
			page = append(page, queryJSON{Cols: q.Cols})
		}
		body, err := json.Marshal(queryRequest{Table: t.Name(), Queries: page})
		if err != nil {
			b.Fatal(err)
		}
		pages = append(pages, body)
	}
	h := New(db).Handler()
	ask := func(page []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(page)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Len()
	}
	for _, page := range pages { // warm the cache
		ask(page)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += ask(pages[i%len(pages)])
	}
	b.ReportMetric(float64(total)/float64(b.N), "B/page")
}
