package gbmqo

import (
	"context"
	"errors"
	"testing"
	"time"

	"gbmqo/internal/exec"
)

// probeCtx bounds a Submit that should not wait, so a regression fails the
// test instead of hanging it.
func probeCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// warm computes cols through the cache so later requests for it can hit.
func warm(t *testing.T, db *DB, cols ...[]string) {
	t.Helper()
	if _, _, err := db.Execute("lineitem", cols, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
}

// countTotal sums a COUNT(*) result's aggregate column.
func countTotal(t *testing.T, res *Table) int64 {
	t.Helper()
	c := res.Col(res.NumCols() - 1)
	var n int64
	for r := 0; r < res.NumRows(); r++ {
		n += c.Value(r).I
	}
	return n
}

// TestSubmitProbeAnswersCacheHit: a warmed set is answered at Submit, as an
// exact hit that needed no run.
func TestSubmitProbeAnswersCacheHit(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	warm(t, db, []string{"l_returnflag", "l_linestatus"})
	db.StartBatching(BatchOptions{})
	defer db.StopBatching()

	q := GroupQuery{Cols: []string{"l_returnflag", "l_linestatus"}}
	res, info, err := db.Submit(probeCtx(t), "lineitem", q)
	if err != nil {
		t.Fatalf("cached set: %v", err)
	}
	if info.Origin != OriginCacheHit || info.QueueWait != 0 || info.BatchQueries != 1 || info.BatchRequests != 1 {
		t.Fatalf("info = %+v, want a probe cache hit", info)
	}
	sameTable(t, "probe hit", res, soloReference(t, db, []GroupQuery{q})[0])
	st, _ := db.BatchStats()
	if st.Submitted != 1 || st.ProbeAnswers != 1 || st.Batches != 0 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v, want one submission answered by the probe", st)
	}
}

// TestSubmitProbeAnswersAncestor: a subset of a warmed set is re-aggregated
// from the cached superset at Submit.
func TestSubmitProbeAnswersAncestor(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	warm(t, db, []string{"l_returnflag", "l_linestatus"})
	db.StartBatching(BatchOptions{})
	defer db.StopBatching()

	q := GroupQuery{Cols: []string{"l_returnflag"}}
	res, info, err := db.Submit(probeCtx(t), "lineitem", q)
	if err != nil {
		t.Fatalf("ancestor-answerable set: %v", err)
	}
	if info.Origin != OriginCacheAncestor || info.QueueWait != 0 {
		t.Fatalf("info = %+v, want a probe ancestor answer", info)
	}
	sameTable(t, "probe ancestor", res, soloReference(t, db, []GroupQuery{q})[0])
}

// TestSubmitProbeSeesAppend: after an append, a cached set answers with the
// post-append totals, whichever way it is served.
func TestSubmitProbeSeesAppend(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	q := GroupQuery{Cols: []string{"l_returnflag"}}
	warm(t, db, q.Cols)
	db.StartBatching(BatchOptions{})
	defer db.StopBatching()

	li, _ := db.Table("lineitem")
	rows := make([][]Value, 50)
	for i := range rows {
		rows[i] = make([]Value, li.NumCols())
		for c := range rows[i] {
			rows[i][c] = li.Col(c).Value(i)
		}
	}
	if _, err := db.Append("lineitem", rows); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Submit(probeCtx(t), "lineitem", q)
	if err != nil {
		t.Fatal(err)
	}
	if got := countTotal(t, res); got != 4050 {
		t.Fatalf("COUNT total after append = %d, want 4050", got)
	}
}

// TestSubmitProbeHonoursShutdown: a drained batcher refuses even a set the
// cache could answer.
func TestSubmitProbeHonoursShutdown(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	q := GroupQuery{Cols: []string{"l_returnflag"}}
	warm(t, db, q.Cols)
	db.StartBatching(BatchOptions{})
	if _, _, err := db.Submit(probeCtx(t), "lineitem", q); err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, err := db.Submit(probeCtx(t), "lineitem", q)
	if !errors.Is(err, ErrBatcherClosed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("cached set after Drain: %v, want ErrBatcherClosed or ErrDraining", err)
	}
}

// TestSubmitProbeDefersToOpenBreaker: the probe does not serve a table whose
// breaker is open; the request fails fast as it does without a cache.
func TestSubmitProbeDefersToOpenBreaker(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	cached := GroupQuery{Cols: []string{"l_returnflag"}}
	warm(t, db, cached.Cols)
	db.EnableBreakers(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour})
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" {
			panic("table down")
		}
	})
	for i := 0; i < 2; i++ {
		db.Execute("lineitem", [][]string{{"l_shipmode"}}, QueryOptions{})
	}
	exec.Testing.ClearFailPoint()
	if st := db.BreakerStates(); len(st) != 1 || st[0].State != BreakerOpen {
		t.Fatalf("breakers = %+v, want lineitem open", st)
	}
	db.StartBatching(BatchOptions{})
	defer db.StopBatching()

	_, _, err := db.Submit(probeCtx(t), "lineitem", cached)
	var oe *BreakerOpenError
	if !errors.As(err, &oe) {
		t.Fatalf("cached set behind an open breaker: %v, want *BreakerOpenError", err)
	}
	if st, _ := db.BatchStats(); st.ProbeAnswers != 0 {
		t.Fatalf("probe answered behind an open breaker: %+v", st)
	}
}

// TestSubmitSQLProbeAnswersCachedStatement: a GROUPING SETS statement whose
// every set is cached answers without a run, identical to Query.
func TestSubmitSQLProbeAnswersCachedStatement(t *testing.T) {
	db := openCachedLineitem(t, 4000)
	const stmt = `SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem
		GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))`
	want, err := db.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	db.StartBatching(BatchOptions{})
	defer db.StopBatching()
	got, err := db.SubmitSQL(probeCtx(t), stmt)
	if err != nil {
		t.Fatalf("cached statement: %v", err)
	}
	sameTable(t, "cached SubmitSQL", got, want)
	if st, _ := db.BatchStats(); st.ProbeAnswers != 3 || st.Batches != 0 {
		t.Fatalf("stats = %+v, want three probe answers and no run", st)
	}
}
