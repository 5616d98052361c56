package gbmqo

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// families parses one Prometheus exposition into family → "# TYPE" and
// family → "# HELP", failing on a family described twice or a series line
// rendered twice.
func families(t *testing.T, exposition string) (types, helps map[string]string) {
	t.Helper()
	types, helps = map[string]string{}, map[string]string{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		var into map[string]string
		switch {
		case strings.HasPrefix(line, "# HELP "):
			into, line = helps, strings.TrimPrefix(line, "# HELP ")
		case strings.HasPrefix(line, "# TYPE "):
			into, line = types, strings.TrimPrefix(line, "# TYPE ")
		default:
			series, _, _ := strings.Cut(line, " ")
			if seen[series] {
				t.Fatalf("series %s rendered twice", series)
			}
			seen[series] = true
			continue
		}
		fam, text, _ := strings.Cut(line, " ")
		if _, dup := into[fam]; dup {
			t.Fatalf("family %s described twice", fam)
		}
		into[fam] = text
	}
	return types, helps
}

// readmeCatalogue parses README.md's "Metrics" table: family → type.
func readmeCatalogue(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cells := strings.Split(sc.Text(), "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`gbmqo_") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		name, _, _ = strings.Cut(name, "{")
		out[name] = strings.TrimSpace(cells[2])
	}
	if len(out) == 0 {
		t.Fatal("README.md has no metrics catalogue rows")
	}
	return out
}

func scrape(db *DB) string {
	var buf bytes.Buffer
	db.WriteMetrics(&buf)
	return buf.String()
}

// TestMetricsCatalogue: a DB with every subsystem on — durable, a result
// cache, the scheduler, armed breakers and two shards — after one page, one
// append and one sharded run emits exactly the families README's "Metrics"
// table lists, with the listed types, and no family's help text changes when
// sharding is switched on.
func TestMetricsCatalogue(t *testing.T) {
	db, _, err := OpenDurable(t.TempDir(), &Config{CacheBytes: 1 << 20, Seed: 1}, &DurabilityOptions{SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, db)
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 200) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	db.EnableBreakers(BreakerConfig{})
	db.StartBatching(BatchOptions{})
	for _, a := range db.SubmitPage(context.Background(), "events", []GroupQuery{{Cols: []string{"k"}}, {Cols: []string{"s"}}}) {
		if a.Err != nil {
			t.Fatal(a.Err)
		}
	}
	if _, err := db.Append("events", durableRows(200, 10)); err != nil {
		t.Fatal(err)
	}
	_, helpsOff := families(t, scrape(db))

	if err := db.EnableSharding(ShardOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT k, COUNT(*) FROM events GROUP BY k"); err != nil {
		t.Fatal(err)
	}
	out := scrape(db)
	if !strings.Contains(out, "gbmqo_shard_gathers_total 1") {
		t.Fatalf("the query did not run sharded:\n%s", out)
	}
	types, helps := families(t, out)

	want := readmeCatalogue(t)
	for fam, typ := range want {
		if got, ok := types[fam]; !ok {
			t.Errorf("README lists %s, which the scrape does not emit", fam)
		} else if got != typ {
			t.Errorf("%s: README says %s, scrape says %s", fam, typ, got)
		}
	}
	for fam := range types {
		if _, ok := want[fam]; !ok {
			t.Errorf("scrape emits %s, which README's Metrics table does not list", fam)
		}
	}
	for fam, off := range helpsOff {
		if on := helps[fam]; on != off {
			t.Errorf("%s help changes with sharding on:\n off: %s\n on:  %s", fam, off, on)
		}
	}
}

// TestScrapeUnderLoad: WriteMetrics, Metrics and HealthSections run in a
// loop while pages and paced appends run on a durable, cached, sharded DB
// with breakers armed, and StopBatching/StartBatching swap the scheduler
// underneath. Every scrape must render each series once, and the DB's own
// counters must never move backwards.
func TestScrapeUnderLoad(t *testing.T) {
	db, _, err := OpenDurable(t.TempDir(), &Config{CacheBytes: 1 << 20, Seed: 1},
		&DurabilityOptions{SnapshotInterval: -1, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, db)
	tb := NewTable("events", durableDefs)
	for _, row := range durableRows(0, 500) {
		tb.AppendRow(row...)
	}
	db.Register(tb)
	db.EnableBreakers(BreakerConfig{})
	if err := db.EnableSharding(ShardOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				step(i)
			}
		}()
	}
	pages := [][]GroupQuery{
		{{Cols: []string{"k"}}, {Cols: []string{"s"}}},
		{{Cols: []string{"k", "s"}}, {Cols: []string{"d"}}},
	}
	errc := make(chan error, 3)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	worker(func(i int) {
		for _, a := range db.SubmitPage(context.Background(), "events", pages[i%len(pages)]) {
			if a.Err != nil && !errors.Is(a.Err, ErrBatcherClosed) && !errors.Is(a.Err, ErrDraining) {
				report(a.Err)
			}
		}
	})
	worker(func(i int) {
		if _, err := db.Append("events", durableRows(500+i*5, 5)); err != nil {
			report(err)
		}
		time.Sleep(time.Millisecond)
	})
	worker(func(i int) {
		if i%2 == 0 {
			db.StopBatching()
		} else {
			db.StartBatching(BatchOptions{})
		}
		time.Sleep(200 * time.Microsecond)
	})

	var lastRuns, lastAppends float64
	for i := 0; i < 100; i++ {
		families(t, scrape(db))
		m := db.Metrics()
		if runs := m["gbmqo_exec_runs_total"]; runs < lastRuns {
			t.Fatalf("gbmqo_exec_runs_total fell from %v to %v", lastRuns, runs)
		} else {
			lastRuns = runs
		}
		if n := m["gbmqo_appends_total"]; n < lastAppends {
			t.Fatalf("gbmqo_appends_total fell from %v to %v", lastAppends, n)
		} else {
			lastAppends = n
		}
		if _, ok := db.HealthSections()["durability"]; !ok {
			t.Fatal("durability section missing from HealthSections")
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if lastRuns == 0 || lastAppends == 0 {
		t.Fatalf("no load ran beside the scrapes: runs %v, appends %v", lastRuns, lastAppends)
	}
}
