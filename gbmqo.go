// Package gbmqo is a Go implementation of "Efficient Computation of Multiple
// Group By Queries" (Chen & Narasayya, SIGMOD 2005): a cost-based,
// bottom-up multi-query optimizer for sets of Group By queries over one
// relation, together with the columnar execution engine, statistics,
// physical-design simulation and SQL surface needed to run it end to end.
//
// The typical flow:
//
//	db := gbmqo.Open(nil)
//	db.Register(myTable)                       // or db.RegisterCSV / datagen
//	res, err := db.Query(`SELECT l_shipmode, COUNT(*) FROM lineitem
//	                      GROUP BY GROUPING SETS ((l_shipmode), (l_returnflag))`)
//
// Lower-level entry points expose the optimizer directly: Optimize returns
// the logical plan (which Group By results to materialize and in what order),
// ExplainSQL renders it as the SQL script a client-side implementation would
// submit (§5.2 of the paper), and Profile runs the paper's motivating
// data-quality scenario.
package gbmqo

import (
	"context"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"time"

	"gbmqo/internal/cache"
	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/datagen"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/index"
	"gbmqo/internal/obs"
	"gbmqo/internal/plan"
	"gbmqo/internal/sched"
	"gbmqo/internal/shard"
	"gbmqo/internal/sql"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

// Re-exported storage types. External callers build tables through these.
type (
	// Table is a named, columnar, dictionary-encoded relation.
	Table = table.Table
	// ColumnDef declares one column of a schema.
	ColumnDef = table.ColumnDef
	// Value is one typed cell.
	Value = table.Value
	// Type enumerates column types.
	Type = table.Type
	// Set is a set of column ordinals identifying a Group By query.
	Set = colset.Set
	// Plan is a logical plan: a tree of Group By queries rooted at the base
	// relation, with intermediate results materialized as temp tables.
	Plan = plan.Plan
	// SearchStats reports the optimizer's search effort.
	SearchStats = core.SearchStats
	// ExecReport accounts one plan execution.
	ExecReport = engine.ExecReport
	// Strategy selects a multi-group-by planning strategy.
	Strategy = engine.Strategy
	// ExecError is the typed error an isolated operator failure (including a
	// panic inside a parallel worker) surfaces as, naming the failing step and
	// plan node. Unwrap with errors.As.
	ExecError = exec.ExecError
	// Degradation records one graceful-degradation decision taken under a
	// MemBudget (see ExecReport.Degradations).
	Degradation = engine.Degradation
	// DegradeKind classifies a Degradation.
	DegradeKind = engine.DegradeKind
	// CacheStats is a point-in-time snapshot of the cross-query result cache
	// (see DB.CacheStats).
	CacheStats = cache.Stats
	// CacheCounters reports how the result cache served one request (see
	// ExecReport.Cache).
	CacheCounters = engine.CacheCounters
	// RetryAttempt records one retried execution attempt: the error, its
	// classification, the backoff slept, and the degradation modes applied to
	// the next attempt (see ExecReport.Retries).
	RetryAttempt = engine.RetryAttempt
	// ErrClass classifies an execution error for retry purposes (see Classify).
	ErrClass = exec.ErrClass
)

// Error classes (see Classify).
const (
	// ClassTransient: an isolated operator failure (ExecError); retryable.
	ClassTransient = exec.ClassTransient
	// ClassFatal: a planning or catalog error; retrying cannot help.
	ClassFatal = exec.ClassFatal
	// ClassCaller: context cancellation or deadline; the caller gave up.
	ClassCaller = exec.ClassCaller
)

// Classify reports how an execution error should be treated: transient
// failures are worth retrying, fatal ones are not, and caller-initiated
// cancellations must never be retried or counted against a circuit breaker.
func Classify(err error) ErrClass { return exec.Classify(err) }

// Degradation kinds a budget-constrained execution can record.
const (
	// DegradeSortAgg: hash aggregation replaced by sort-based aggregation.
	DegradeSortAgg = engine.DegradeSortAgg
	// DegradeUnshare: shared scan split into individual passes.
	DegradeUnshare = engine.DegradeUnshare
	// DegradeRederive: temp-table materialization skipped; children re-derive
	// from the base relation.
	DegradeRederive = engine.DegradeRederive
)

// Column types.
const (
	Int64   = table.TInt64
	Float64 = table.TFloat64
	String  = table.TString
	Date    = table.TDate
)

// Value constructors.
var (
	// IntVal builds a BIGINT value.
	IntVal = table.Int
	// FloatVal builds a FLOAT value.
	FloatVal = table.Float
	// StrVal builds a VARCHAR value.
	StrVal = table.Str
	// DateVal builds a DATE value from days since epoch.
	DateVal = table.Date
	// NullVal builds a NULL of the given type.
	NullVal = table.Null
)

// Planning strategies.
const (
	// Naive computes every Group By directly from the base relation.
	Naive = engine.StrategyNaive
	// GroupingSets emulates the commercial GROUPING SETS plan the paper
	// measured (§6.1).
	GroupingSets = engine.StrategyGroupingSets
	// GBMQO is the paper's hill-climbing optimizer (the default).
	GBMQO = engine.StrategyGBMQO
	// Exhaustive finds the optimal binary plan (small inputs only, §6.3).
	Exhaustive = engine.StrategyExhaustive
)

// NewTable creates an empty table with the given schema.
func NewTable(name string, defs []ColumnDef) *Table { return table.New(name, defs) }

// Agg is one aggregate column specification (see the AggXxx kinds). Col is
// the source column ordinal on the base table; Name is the output column.
type Agg = exec.Agg

// AggKind enumerates aggregate functions.
type AggKind = exec.AggKind

// Aggregate kinds.
const (
	AggCountStar = exec.AggCountStar
	AggCount     = exec.AggCount
	AggSum       = exec.AggSum
	AggMin       = exec.AggMin
	AggMax       = exec.AggMax
	AggAvg       = exec.AggAvg
)

// CountStar is the COUNT(*) aggregate, the paper's default.
func CountStar() Agg { return exec.CountStar() }

// GroupQuery is one Group By request with its own aggregates (§7.2 allows
// different queries to carry different aggregates; intermediates then hold
// the union).
type GroupQuery struct {
	// Cols are the grouping column names.
	Cols []string
	// Aggs are this query's aggregates (nil = COUNT(*)).
	Aggs []Agg
}

// Cols builds a Set from column ordinals.
func Cols(ords ...int) Set { return colset.Of(ords...) }

// Config tunes a DB.
type Config struct {
	// Estimator selects the NDV estimation method (default GEE sampling).
	Estimator stats.Estimator
	// SampleSize bounds statistics samples (default 10 000 rows).
	SampleSize int
	// Seed makes sampling deterministic.
	Seed int64
	// CacheBytes, when positive, enables the cross-query result cache with
	// this byte budget: Group By results survive across Query calls and
	// answer later queries exactly or by re-aggregation from a cached
	// superset grouping (see DESIGN.md "Cross-query result cache"). 0
	// disables caching.
	CacheBytes int64
}

// DB is the top-level handle: a catalog of tables plus the optimizer and
// execution engine.
//
// A DB is safe for concurrent use once its tables are registered: queries,
// Submit calls and stats reads (CacheStats, Metrics, WriteMetrics) may run
// from any number of goroutines. Registering or replacing tables and building
// indexes are not synchronized with running queries — do schema changes
// before serving traffic.
type DB struct {
	eng *engine.Engine
	obs *obs.Registry

	// batchMu guards the lazily started page scheduler (see
	// DB.Submit and DB.StartBatching in submit.go).
	batchMu   sync.Mutex
	batcher   *sched.Batcher
	batchOpts BatchOptions

	// shardMu guards the scatter-gather coordinator (see DB.EnableSharding in
	// sharding.go).
	shardMu sync.Mutex
	shards  *shard.Coordinator

	// dur is the crash-durability layer (WAL + snapshots), attached only by
	// OpenDurable; nil for in-memory DBs. See durable.go.
	dur *durability
}

// Open creates an empty DB. A nil config selects sampling-based statistics
// with defaults.
func Open(cfg *Config) *DB {
	c := Config{Estimator: stats.GEE, Seed: 1}
	if cfg != nil {
		c = *cfg
	}
	db := &DB{
		eng: engine.New(stats.NewService(c.Estimator, c.SampleSize, c.Seed)),
		obs: obs.NewRegistry(),
	}
	if c.CacheBytes > 0 {
		db.eng.SetCache(cache.New(cache.Config{MaxBytes: c.CacheBytes}))
	}
	db.registerMetrics()
	return db
}

// CacheStats snapshots the cross-query result cache's counters and residency.
// ok is false when no cache is configured (Config.CacheBytes == 0).
//
// CacheStats is safe to call while queries and Submit batches are running on
// other goroutines: every counter in the snapshot is read atomically, and
// residency (Bytes, Entries) is read under the cache's own lock. The snapshot
// is a consistent point-in-time view of each individual counter, not of the
// whole set — a query completing mid-snapshot may be reflected in Hits but
// not yet in Bytes.
func (db *DB) CacheStats() (st CacheStats, ok bool) {
	c := db.eng.ResultCache()
	if c == nil {
		return CacheStats{}, false
	}
	return c.Snapshot(), true
}

// Register adds (or replaces) a table in the catalog. On a durable DB (see
// OpenDurable) the registration is snapshotted synchronously: it is on disk
// by the time Register returns. Register cannot report a snapshot failure —
// durable callers that must know whether the registration actually persisted
// should use RegisterDurable; Register logs the failure instead of swallowing
// it.
func (db *DB) Register(t *Table) {
	if db.dur != nil {
		if err := db.registerDurable(t); err != nil {
			log.Printf("gbmqo: Register(%q): registration is NOT durable: %v", t.Name(), err)
		}
		return
	}
	db.eng.Catalog().Register(t)
}

// RegisterDurable adds (or replaces) a table in the catalog and returns only
// after the registration is on disk. A non-nil error means the table IS
// registered in memory but NOT durable — a crash before the next successful
// snapshot loses it. On a non-durable DB it behaves like Register and returns
// nil.
func (db *DB) RegisterDurable(t *Table) error {
	if db.dur != nil {
		return db.registerDurable(t)
	}
	db.eng.Catalog().Register(t)
	return nil
}

// RegisterCSV loads a table from CSV (header row required) and registers it.
func (db *DB) RegisterCSV(name string, defs []ColumnDef, r io.Reader) (*Table, error) {
	t, err := table.ReadCSV(name, defs, r)
	if err != nil {
		return nil, err
	}
	db.Register(t)
	return t, nil
}

// Table resolves a registered table.
func (db *DB) Table(name string) (*Table, bool) { return db.eng.Catalog().Table(name) }

// Tables lists registered table names.
func (db *DB) Tables() []string { return db.eng.Catalog().TableNames() }

// CreateIndex builds a (non-)clustered index on the named columns, making the
// engine and cost model physical-design aware (§6.9).
func (db *DB) CreateIndex(ixName, tableName string, cols []string, clustered bool) error {
	t, ok := db.eng.Catalog().Table(tableName)
	if !ok {
		return fmt.Errorf("gbmqo: unknown table %q", tableName)
	}
	ords, err := db.resolveCols(t, cols)
	if err != nil {
		return err
	}
	return db.eng.Catalog().AddIndex(index.Build(t, ixName, ords, clustered))
}

// DropIndexes removes every index on a table.
func (db *DB) DropIndexes(tableName string) { db.eng.Catalog().DropIndexes(tableName) }

// QueryOptions tunes execution. Every entry point — Execute, ExecuteQueries,
// Optimize, Query/QueryWith (joins included), Submit batches (as
// BatchOptions.Exec) and SubmitSQL — translates it through the same single
// mapping, so each field below holds on all of them.
type QueryOptions struct {
	// Strategy selects the planner (default GBMQO).
	Strategy Strategy
	// UseCardinalityModel switches to the §3.2.1 cost model.
	UseCardinalityModel bool
	// BinaryOnly restricts SubPlanMerge to type (b) (§4.2).
	BinaryOnly bool
	// DisablePruning turns off the §4.3 pruning techniques (on by default).
	DisablePruning bool
	// ConsiderCubeRollup enables the §7.1 CUBE/ROLLUP plan alternatives.
	ConsiderCubeRollup bool
	// StorageBudget bounds intermediate temp-table bytes (§4.4.2); 0 = off.
	StorageBudget float64
	// SharedScan executes sibling Group Bys in one pass over their common
	// parent (the §5.1 shared-scan technique; orthogonal to plan choice). It
	// holds on every entry point, SQL statements and pushed-down joins
	// included.
	SharedScan bool
	// Parallel executes independent sub-plans concurrently, one goroutine
	// each, longest first. Sub-plans and Parallelism's share workers draw
	// from one pool of GOMAXPROCS worker tokens per request, so at most
	// GOMAXPROCS of them scan at once.
	Parallel bool
	// Parallelism caps the shares *inside* one Group By operator
	// (intra-operator parallel aggregation): 0 disables it, negative selects
	// GOMAXPROCS, positive values cap it. A node splits only as far as each
	// share reads at least 16 384 rows and enough rows to pay for merging
	// its estimated groups, so small temp-table re-aggregations and
	// near-unique keys stay sequential. Shares beyond the first start only
	// on worker tokens idle at that moment (see Parallel), so a value above
	// GOMAXPROCS does not oversubscribe the host.
	Parallelism int
	// Context cancels or deadlines execution: operator loops poll it at every
	// row-block boundary, so cancellation takes effect within one block's
	// worth of work, drops every temp table, and leaves the catalog
	// unchanged. Nil means context.Background().
	Context context.Context
	// MemBudget bounds, in bytes, the execution working state held at once
	// (hash tables, accumulator state, materialized temps). Exceeding it
	// triggers graceful degradation — sort-based aggregation, un-shared
	// scans, re-deriving subtrees from the base relation — rather than
	// failure; decisions taken are recorded in ExecReport.Degradations.
	// 0 means unlimited (peak memory is still measured in ExecReport.PeakMem).
	MemBudget int64
	// NoCache bypasses the cross-query result cache for this query (no
	// lookup, no admission). Irrelevant when the DB has no cache configured.
	NoCache bool
	// MaxAttempts caps execution attempts: a transiently failing run (an
	// isolated operator fault, see ExecError) is retried with exponential
	// backoff up to this many total attempts, each retry descending the
	// degradation ladder (sequential, then unshared / no-retain / no-cache)
	// so the retry avoids whatever machinery the fault hit. 0 or 1 disables
	// retry. Attempts and per-retry detail land in ExecReport.Attempts and
	// ExecReport.Retries. Fatal errors and caller cancellations never retry,
	// and with breakers enabled (see EnableBreakers) the table's breaker is
	// asked before every attempt: once it opens the remaining budget is
	// forfeited and the query fails fast with *BreakerOpenError. The budget
	// holds on every entry point.
	MaxAttempts int
	// RetryBackoff is the base backoff before the first retry, doubled per
	// attempt with jitter (default 1ms, capped at 100ms).
	RetryBackoff time.Duration
	// AllowPartial opts this query into partial results under sharded
	// execution (see DB.EnableSharding): when a shard is open or exhausts its
	// retries, the surviving shards' merged result is returned with the gap
	// attributed in ExecReport.ShardsFailed and ExecReport.ShardCoverage
	// instead of failing the query. Without it a shard failure surfaces as a
	// typed *ShardError. No effect when sharding is not enabled.
	AllowPartial bool
}

// request is the one translation of public options into engine knobs: the
// request template every entry point — Execute, ExecuteQueries, Optimize,
// QueryWith, Submit batches, SubmitSQL and cache re-warm — starts from, filling
// in only table, grouping sets and aggregates on its copy.
func (o QueryOptions) request() engine.Request {
	req := engine.Request{
		Strategy: o.Strategy,
		Core: core.Options{
			BinaryOnly:         o.BinaryOnly,
			PruneSubsumption:   !o.DisablePruning,
			PruneMonotonic:     !o.DisablePruning,
			ConsiderCubeRollup: o.ConsiderCubeRollup,
			StorageBudget:      o.StorageBudget,
		},
		SharedScan:   o.SharedScan,
		Parallel:     o.Parallel,
		Parallelism:  o.Parallelism,
		Context:      o.Context,
		MemBudget:    o.MemBudget,
		UseCache:     !o.NoCache,
		Retry:        fault.Policy{MaxAttempts: o.MaxAttempts, BaseBackoff: o.RetryBackoff},
		AllowPartial: o.AllowPartial,
	}
	if o.UseCardinalityModel {
		req.Model = engine.ModelCardinality
	}
	return req
}

// QueryResult is an executed SQL query.
type QueryResult struct {
	// Table is the result set (GROUPING SETS union shape for grouped queries).
	Table *Table
	// Plan is the logical plan chosen for the multi-group-by part.
	Plan *Plan
	// Search reports optimizer effort.
	Search SearchStats
	// Report accounts the execution (nil for non-grouped statements):
	// governance counters, degradations, and per-node kernel attribution
	// (see ExecReport.Kernels). For a join whose grouping was pushed below the
	// join it accounts the left side's multi-Group-By run.
	Report *ExecReport
}

// Query runs a SQL statement with default options and returns its result set.
func (db *DB) Query(statement string) (*Table, error) {
	res, err := db.QueryWith(statement, QueryOptions{})
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// QueryWith runs a SQL statement with explicit options.
func (db *DB) QueryWith(statement string, o QueryOptions) (*QueryResult, error) {
	res, err := sql.Run(db.eng, statement, o.request())
	if err != nil {
		return nil, err
	}
	return &QueryResult{Table: res.Table, Plan: res.Plan, Search: res.Search, Report: res.Report}, nil
}

// Optimize plans a set of Group By queries (named columns, one list per
// query) without executing them.
func (db *DB) Optimize(tableName string, queries [][]string, o QueryOptions) (*Plan, SearchStats, error) {
	req, err := db.buildRequest(tableName, queries, o)
	if err != nil {
		return nil, SearchStats{}, err
	}
	p, st, _, err := db.eng.Plan(req)
	return p, st, err
}

// Execute plans and runs a set of Group By queries, returning per-set result
// tables keyed by Set.
func (db *DB) Execute(tableName string, queries [][]string, o QueryOptions) (*Plan, *ExecReport, error) {
	req, err := db.buildRequest(tableName, queries, o)
	if err != nil {
		return nil, nil, err
	}
	run, err := db.eng.Run(req)
	if err != nil {
		return nil, nil, err
	}
	return run.Plan, run.Report, nil
}

// ExecuteQueries plans and runs Group By requests that each carry their own
// aggregates (§7.2): materialized intermediates hold the union of the
// aggregates their descendants need, and every result is projected back to
// its query's own aggregate list.
func (db *DB) ExecuteQueries(tableName string, queries []GroupQuery, o QueryOptions) (*Plan, *ExecReport, error) {
	t, ok := db.eng.Catalog().Table(tableName)
	if !ok {
		return nil, nil, fmt.Errorf("gbmqo: unknown table %q", tableName)
	}
	perSet := make(map[Set][]Agg, len(queries))
	sets := make([]Set, 0, len(queries))
	for _, q := range queries {
		ords, err := db.resolveCols(t, q.Cols)
		if err != nil {
			return nil, nil, err
		}
		set := colset.Of(ords...)
		sets = append(sets, set)
		if len(q.Aggs) > 0 {
			perSet[set] = q.Aggs
		}
	}
	req := o.request()
	req.Table, req.Sets, req.PerSetAggs = tableName, sets, perSet
	run, err := db.eng.Run(req)
	if err != nil {
		return nil, nil, err
	}
	return run.Plan, run.Report, nil
}

// ExplainSQL renders a plan as the SQL script a client-side implementation
// would submit (§5.2), in the §4.4 storage-minimizing order.
func (db *DB) ExplainSQL(p *Plan) ([]string, error) {
	t, ok := db.eng.Catalog().Table(p.BaseName)
	if !ok {
		return nil, fmt.Errorf("gbmqo: unknown base table %q", p.BaseName)
	}
	env, err := db.eng.CostEnv(t.Name())
	if err != nil {
		return nil, err
	}
	size := func(s Set) float64 { return env.NDV(s) * (env.Width(s) + 8) }
	return plan.EmitSQL(p, size, plan.SQLOptions{}), nil
}

func (db *DB) buildRequest(tableName string, queries [][]string, o QueryOptions) (engine.Request, error) {
	t, ok := db.eng.Catalog().Table(tableName)
	if !ok {
		return engine.Request{}, fmt.Errorf("gbmqo: unknown table %q", tableName)
	}
	sets := make([]Set, 0, len(queries))
	for _, q := range queries {
		ords, err := db.resolveCols(t, q)
		if err != nil {
			return engine.Request{}, err
		}
		sets = append(sets, colset.Of(ords...))
	}
	req := o.request()
	req.Table, req.Sets = tableName, sets
	return req, nil
}

func (db *DB) resolveCols(t *Table, names []string) ([]int, error) {
	ords := make([]int, 0, len(names))
	for _, n := range names {
		found := -1
		for i := 0; i < t.NumCols(); i++ {
			if strings.EqualFold(t.Col(i).Name(), n) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("gbmqo: table %q has no column %q", t.Name(), n)
		}
		ords = append(ords, found)
	}
	return ords, nil
}

// GenerateDataset builds one of the bundled synthetic datasets: "lineitem"
// (TPC-H-like), "sales", "nref", or "customer". zipf only affects lineitem.
func GenerateDataset(kind string, rows int, seed int64, zipf float64) (*Table, error) {
	switch strings.ToLower(kind) {
	case "lineitem", "tpch":
		return datagen.Lineitem(datagen.LineitemOpts{Rows: rows, Seed: seed, Zipf: zipf}), nil
	case "sales":
		return datagen.Sales(datagen.SalesOpts{Rows: rows, Seed: seed}), nil
	case "nref":
		return datagen.NRef(datagen.NRefOpts{Rows: rows, Seed: seed}), nil
	case "customer", "customers":
		return datagen.Customers(datagen.CustomersOpts{Rows: rows, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("gbmqo: unknown dataset %q (want lineitem, sales, nref, or customer)", kind)
	}
}
