// Command gbmqo is the interactive face of the library: it loads or generates
// a dataset, runs SQL (including GROUPING SETS / CUBE / ROLLUP / COMBI), and
// explains GB-MQO plans.
//
// Usage:
//
//	gbmqo -gen lineitem -rows 50000 -sql "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY GROUPING SETS ((l_shipmode), (l_returnflag))"
//	gbmqo -gen lineitem -explain "l_returnflag; l_linestatus; l_shipmode"
//	gbmqo -csv data.csv -schema "a:int,b:string" -table t -sql "SELECT b, COUNT(*) FROM t GROUP BY b"
//	gbmqo -gen lineitem -profile lineitem
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gbmqo"
	"gbmqo/internal/server"
	"gbmqo/internal/table"
)

func main() {
	var (
		gen       = flag.String("gen", "", "generate a bundled dataset (lineitem, sales, nref, customer)")
		rows      = flag.Int("rows", 50_000, "rows to generate")
		seed      = flag.Int64("seed", 1, "generator seed")
		zipf      = flag.Float64("zipf", 0, "Zipf skew for lineitem")
		csvPath   = flag.String("csv", "", "load a CSV file instead of generating")
		schema    = flag.String("schema", "", "CSV schema, e.g. \"a:int,b:string,c:float,d:date\"")
		tableN    = flag.String("table", "t", "table name for -csv")
		sqlStmt   = flag.String("sql", "", "SQL statement to execute")
		explain   = flag.String("explain", "", "semicolon-separated Group By column lists to optimize and explain")
		profileT  = flag.String("profile", "", "table to run the data-quality profile on")
		strategy  = flag.String("strategy", "gbmqo", "planning strategy: gbmqo, naive, groupingsets, exhaustive")
		limit     = flag.Int("limit", 20, "max result rows to print")
		cacheMB   = flag.Int("cache-mb", 0, "cross-query result cache budget in MiB (0 = off)")
		repeat    = flag.Int("repeat", 1, "run -sql this many times (with -cache-mb, repeats hit the cache)")
		serve     = flag.Bool("serve", false, "serve Group By queries over HTTP (POST /query, POST /sql, GET /metrics)")
		addr      = flag.String("addr", ":8080", "listen address for -serve")
		shedAt    = flag.Duration("shed-target", 0, "p95 page-run latency target for adaptive load shedding (0 = off)")
		drainFor  = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight work on SIGINT/SIGTERM before -serve exits")
		metrics   = flag.Bool("metrics", false, "dump the metrics registry in Prometheus text format after running")
		par       = flag.Int("par", 0, "intra-operator parallelism: workers per large aggregate (-1 = GOMAXPROCS, 0 = off)")
		kernels   = flag.Bool("explain-kernels", false, "with -sql: print which physical aggregation kernel ran each plan node, its actual and estimated groups, its wall time, and why")
		shards    = flag.Int("shards", 0, "partition tables into N hash shards and scatter-gather queries across them (0 = unsharded)")
		partialOK = flag.Bool("allow-partial", false, "with -shards: serve partial results when a shard fails terminally instead of erroring")
		appendCSV = flag.String("append-csv", "", "append rows from a CSV file (matching the target table's schema, header row required) as a streaming delta")

		dataDir   = flag.String("data-dir", "", "durable data directory (WAL + snapshots): recover on start, log appends, snapshot in the background")
		fsyncPol  = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval, off")
		snapEvery = flag.Duration("snapshot-interval", 30*time.Second, "background snapshot period with -data-dir (negative = snapshot only on registration and close)")
	)
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}

	var cfg *gbmqo.Config
	if *cacheMB > 0 {
		cfg = &gbmqo.Config{CacheBytes: int64(*cacheMB) << 20}
	}
	var db *gbmqo.DB
	if *dataDir != "" {
		var rec *gbmqo.RecoveryReport
		var err error
		db, rec, err = gbmqo.OpenDurable(*dataDir, cfg, &gbmqo.DurabilityOptions{
			Fsync: *fsyncPol, SnapshotInterval: *snapEvery,
		})
		fail(err)
		if rec.SnapshotLoaded || rec.ReplayedRecords > 0 || rec.TruncatedTails > 0 {
			fmt.Printf("recovered %s: %d tables (snapshot wal seq %d), replayed %d WAL records (%d torn tails repaired), rewarmed %d cache entries in %s\n",
				*dataDir, rec.TablesRestored, rec.SnapshotWalSeq, rec.ReplayedRecords,
				rec.TruncatedTails, rec.RewarmedEntries, rec.Wall.Round(time.Millisecond))
		}
	} else {
		db = gbmqo.Open(cfg)
	}
	if *gen != "" {
		t, err := gbmqo.GenerateDataset(*gen, *rows, *seed, *zipf)
		fail(err)
		// A durable restart already recovered this table; regenerating would
		// clobber the recovered epoch and orphan its WAL history.
		if cur, ok := db.Table(t.Name()); ok && *dataDir != "" {
			fmt.Printf("using recovered %s: %d rows (skipping -gen)\n", t.Name(), cur.NumRows())
		} else {
			db.Register(t)
			fmt.Printf("generated %s: %d rows, %d columns\n", t.Name(), t.NumRows(), t.NumCols())
		}
	}
	if *csvPath != "" {
		defs, err := parseSchema(*schema)
		fail(err)
		f, err := os.Open(*csvPath)
		fail(err)
		t, err := db.RegisterCSV(*tableN, defs, f)
		f.Close()
		fail(err)
		fmt.Printf("loaded %s: %d rows\n", t.Name(), t.NumRows())
	}

	if *shards > 0 {
		fail(db.EnableSharding(gbmqo.ShardOptions{Shards: *shards}))
		fmt.Printf("sharding: %d hash shards\n", db.Sharding())
	}

	if *appendCSV != "" {
		name := *tableN
		if _, ok := db.Table(name); !ok && len(db.Tables()) == 1 {
			name = db.Tables()[0]
		}
		t, ok := db.Table(name)
		if !ok {
			fail(fmt.Errorf("-append-csv needs a registered target table (-gen or -csv)"))
		}
		defs := make([]gbmqo.ColumnDef, t.NumCols())
		for i := range defs {
			defs[i] = gbmqo.ColumnDef{Name: t.Col(i).Name(), Typ: t.Col(i).Type()}
		}
		f, err := os.Open(*appendCSV)
		fail(err)
		delta, err := table.ReadCSV("__append_csv", defs, f)
		f.Close()
		fail(err)
		rows := make([][]gbmqo.Value, delta.NumRows())
		for r := range rows {
			row := make([]gbmqo.Value, delta.NumCols())
			for c := range row {
				row[c] = delta.Col(c).Value(r)
			}
			rows[r] = row
		}
		rep, err := db.Append(name, rows)
		fail(err)
		fmt.Printf("appended %d rows to %s (now %d rows, epoch v%d.%d): cache refreshed=%d dropped=%d invalidated=%d in %s\n",
			rep.Rows, rep.Table, rep.TotalRows, rep.Version, rep.Delta,
			rep.Refreshed, rep.Dropped, rep.Invalidated, rep.RefreshWall)
	}

	opts := gbmqo.QueryOptions{Parallelism: *par, AllowPartial: *partialOK}
	switch strings.ToLower(*strategy) {
	case "gbmqo":
		opts.Strategy = gbmqo.GBMQO
	case "naive":
		opts.Strategy = gbmqo.Naive
	case "groupingsets":
		opts.Strategy = gbmqo.GroupingSets
	case "exhaustive":
		opts.Strategy = gbmqo.Exhaustive
	default:
		fail(fmt.Errorf("unknown strategy %q", *strategy))
	}

	ran := *appendCSV != ""
	if *sqlStmt != "" {
		ran = true
		var res *gbmqo.QueryResult
		for i := 0; i < *repeat; i++ {
			var err error
			res, err = db.QueryWith(*sqlStmt, opts)
			fail(err)
		}
		if res.Plan != nil {
			fmt.Println("plan:")
			fmt.Println(res.Plan)
		}
		if *kernels && res.Report != nil {
			fmt.Println("kernels:")
			for _, ku := range res.Report.Kernels {
				fmt.Printf("  %s\n", ku)
			}
			if res.Report.RehashesAvoided > 0 {
				fmt.Printf("  rehashes avoided by presizing: %d\n", res.Report.RehashesAvoided)
			}
		}
		fmt.Println(res.Table.FormatRows(*limit))
		if st, ok := db.CacheStats(); ok {
			fmt.Printf("cache: hits=%d ancestor-hits=%d misses=%d admitted=%d evicted=%d entries=%d bytes=%d\n",
				st.Hits, st.AncestorHits, st.Misses, st.Admissions, st.Evictions, st.Entries, st.Bytes)
		}
	}
	if *explain != "" {
		ran = true
		if len(db.Tables()) == 0 {
			fail(fmt.Errorf("-explain needs a table (-gen or -csv)"))
		}
		tableName := db.Tables()[0]
		var queries [][]string
		for _, part := range strings.Split(*explain, ";") {
			var cols []string
			for _, c := range strings.Split(part, ",") {
				if c = strings.TrimSpace(c); c != "" {
					cols = append(cols, c)
				}
			}
			if len(cols) > 0 {
				queries = append(queries, cols)
			}
		}
		p, st, err := db.Optimize(tableName, queries, opts)
		fail(err)
		fmt.Printf("plan (model cost %.0f, naive %.0f, %d optimizer calls):\n%s\n",
			st.FinalCost, st.NaiveCost, st.OptimizerCalls, p)
		stmts, err := db.ExplainSQL(p)
		fail(err)
		fmt.Println("client-side SQL script (§5.2):")
		for _, s := range stmts {
			fmt.Println("  " + s)
		}
	}
	if *profileT != "" {
		ran = true
		rep, err := db.Profile(*profileT)
		fail(err)
		fmt.Print(rep)
		fmt.Printf("\nprofile plan:\n%s", rep.Plan)
	}
	if *serve {
		ran = true
		if len(db.Tables()) == 0 {
			fail(fmt.Errorf("-serve needs at least one table (-gen or -csv)"))
		}
		sopts := opts
		sopts.SharedScan = true
		sopts.Parallel = true
		sopts.MaxAttempts = 3
		db.StartBatching(gbmqo.BatchOptions{ShedLatencyTarget: *shedAt, Exec: sopts})
		db.EnableBreakers(gbmqo.BreakerConfig{})
		ln, err := net.Listen("tcp", *addr)
		fail(err)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		fmt.Printf("serving %s on %s (POST /query, POST /sql, GET /metrics)\n",
			strings.Join(db.Tables(), ", "), ln.Addr())
		fail(runServe(db, ln, sig, *drainFor))
	}
	if *metrics {
		ran = true
		db.WriteMetrics(os.Stdout)
	}
	if *dataDir != "" {
		// Final snapshot + clean WAL close; idempotent after -serve's own
		// drain-and-close.
		fail(db.Close(context.Background()))
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runServe serves HTTP on ln until a signal arrives on sig, then shuts down
// gracefully: /healthz flips to draining, the scheduler waits for its runs
// in flight, and the HTTP server finishes open requests — each phase bounded
// by drainFor. Returns nil on a clean drain so -serve exits 0 under
// SIGINT/SIGTERM.
func runServe(db *gbmqo.DB, ln net.Listener, sig <-chan os.Signal, drainFor time.Duration) error {
	srv := server.New(db)
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "gbmqo: %v: draining (timeout %s)\n", s, drainFor)
	}
	// Stop routing first (health checks fail), then drain the scheduler so
	// Group By runs in flight deliver, then close HTTP connections.
	srv.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	if err := db.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gbmqo: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

func parseSchema(s string) ([]gbmqo.ColumnDef, error) {
	if s == "" {
		return nil, fmt.Errorf("-csv requires -schema")
	}
	var defs []gbmqo.ColumnDef
	for _, part := range strings.Split(s, ",") {
		nameType := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(nameType) != 2 {
			return nil, fmt.Errorf("bad schema entry %q (want name:type)", part)
		}
		var typ gbmqo.Type
		switch strings.ToLower(nameType[1]) {
		case "int", "int64", "bigint":
			typ = gbmqo.Int64
		case "float", "float64", "double":
			typ = gbmqo.Float64
		case "string", "varchar", "text":
			typ = gbmqo.String
		case "date":
			typ = gbmqo.Date
		default:
			return nil, fmt.Errorf("unknown type %q", nameType[1])
		}
		defs = append(defs, gbmqo.ColumnDef{Name: nameType[0], Typ: typ})
	}
	return defs, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbmqo:", err)
		os.Exit(1)
	}
}
