package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/core"
	"gbmqo/internal/datagen"
	"gbmqo/internal/engine"
	"gbmqo/internal/index"
	"gbmqo/internal/plan"
	"gbmqo/internal/table"
)

// Figure9Row is one query of §6.3's quality comparison: run-time reduction
// against the naïve plan for the GB-MQO plan and the exhaustive optimum.
type Figure9Row struct {
	Query            string
	GBMQOReduction   float64
	OptimalReduction float64
}

// Figure9Result reproduces Figure 9.
type Figure9Result struct {
	Rows []Figure9Row
}

// Figure9 generates 10 random 7-column single-column workloads from the 12
// non-float lineitem columns (the paper's setup, restricted to 7 columns
// because the exhaustive search is exponential) and compares the measured
// run-time reduction of the GB-MQO plan with the optimal plan's.
func Figure9(s Scale) (*Figure9Result, error) {
	li := lineitemSmall(s)
	e := newEngine(s.Seed)
	e.Catalog().Register(li)
	r := rand.New(rand.NewSource(s.Seed + 9))
	candidates := datagen.LineitemSC()
	out := &Figure9Result{}
	for q := 0; q < 10; q++ {
		perm := r.Perm(len(candidates))[:7]
		var sets []colset.Set
		for _, i := range perm {
			sets = append(sets, colset.Of(candidates[i]))
		}
		_, nRes, err := measure(e, engine.Request{Table: li.Name(), Sets: sets, Strategy: engine.StrategyNaive})
		if err != nil {
			return nil, err
		}
		_, mRes, err := measure(e, engine.Request{Table: li.Name(), Sets: sets, Strategy: engine.StrategyGBMQO, Core: prunedGBMQO()})
		if err != nil {
			return nil, err
		}
		_, oRes, err := measure(e, engine.Request{Table: li.Name(), Sets: sets, Strategy: engine.StrategyExhaustive})
		if err != nil {
			return nil, err
		}
		// Reductions are computed on the deterministic scan-work metric so
		// the per-query comparison is free of micro-scale timing jitter (the
		// paper's figure uses run time at 1-GB scale, where the same signal
		// dominates).
		out.Rows = append(out.Rows, Figure9Row{
			Query:            fmt.Sprintf("Q%d", q),
			GBMQOReduction:   workReduction(nRes.Report.RowsScanned, mRes.Report.RowsScanned),
			OptimalReduction: workReduction(nRes.Report.RowsScanned, oRes.Report.RowsScanned),
		})
	}
	return out, nil
}

// workReduction is `reduction` on the rows-scanned metric.
func workReduction(naive, other int64) float64 {
	if naive <= 0 {
		return 0
	}
	r := 1 - float64(other)/float64(naive)
	if r < 0 {
		r = 0
	}
	return r
}

// String renders Figure 9.
func (r *Figure9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9. Scan-work reduction vs naive: GB-MQO and exhaustive optimal\n")
	fmt.Fprintf(&b, "%-5s %10s %10s\n", "Query", "GB-MQO", "optimal")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-5s %9.1f%% %9.1f%%\n", row.Query, row.GBMQOReduction*100, row.OptimalReduction*100)
	}
	return b.String()
}

// Figure10Row is one width step of the §6.4 scaling study.
type Figure10Row struct {
	Columns        int
	OptimizerCalls int
	OptimizeTime   time.Duration
	NaiveTime      time.Duration
	GBMQOTime      time.Duration
	NaiveScan      int64
	GBMQOScan      int64
}

// Figure10Result reproduces Figure 10 (a) optimizer calls, (b) optimization
// time, (c) run time vs naive.
type Figure10Result struct {
	Rows []Figure10Row
}

// Figure10 widens the 12 non-float lineitem columns by repetition to 12, 24,
// 36 and 48 columns and requests all single-column Group Bys, tracking how
// the optimization cost grows (the paper: quadratic, "optimizing 48
// single-column Group By queries can be accomplished within 100 seconds" on
// 2005 hardware).
func Figure10(s Scale) (*Figure10Result, error) {
	li := lineitemSmall(s)
	narrow := li.Project("lineitem_narrow", datagen.LineitemSC())
	out := &Figure10Result{}
	for copies := 1; copies <= 4; copies++ {
		wide := datagen.Widen(narrow, copies)
		e := newEngine(s.Seed)
		e.Catalog().Register(wide)
		var sets []colset.Set
		for i := 0; i < wide.NumCols(); i++ {
			sets = append(sets, colset.Of(i))
		}
		naive, nRes, err := measure(e, engine.Request{Table: wide.Name(), Sets: sets, Strategy: engine.StrategyNaive})
		if err != nil {
			return nil, err
		}
		mqoTime, res, err := measure(e, engine.Request{Table: wide.Name(), Sets: sets, Strategy: engine.StrategyGBMQO, Core: prunedGBMQO()})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure10Row{
			Columns:        wide.NumCols(),
			OptimizerCalls: res.Search.OptimizerCalls,
			OptimizeTime:   res.Search.Elapsed,
			NaiveTime:      naive,
			GBMQOTime:      mqoTime,
			NaiveScan:      nRes.Report.RowsScanned,
			GBMQOScan:      res.Report.RowsScanned,
		})
	}
	return out, nil
}

// String renders Figure 10.
func (r *Figure10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10. Scaling with number of columns (all single-column Group Bys)\n")
	fmt.Fprintf(&b, "%8s %12s %14s %14s %14s\n", "#Columns", "Opt calls", "Opt time", "Naive", "GB-MQO")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12d %14s %14s %14s\n",
			row.Columns, row.OptimizerCalls, row.OptimizeTime.Round(time.Microsecond),
			row.NaiveTime.Round(time.Microsecond), row.GBMQOTime.Round(time.Microsecond))
	}
	return b.String()
}

// Section65Row is one dataset of the §6.5 binary-tree restriction study.
// RowsAllTypes and RowsBinary are the rows each plan scans: the
// deterministic companion of the two wall times.
type Section65Row struct {
	Dataset       string
	CallsAllTypes int
	CallsBinary   int
	RowsAllTypes  int64
	RowsBinary    int64
	TimeAllTypes  time.Duration
	TimeBinary    time.Duration
}

// Section65Result reproduces the §6.5 text finding ("the number of optimizer
// calls reduced by 30%, while the difference in the execution times was less
// than 10%").
type Section65Result struct {
	Rows []Section65Row
}

// Section65 compares the full four-way SubPlanMerge against the type-(b)
// binary restriction on the TPC-H and SALES single-column workloads.
func Section65(s Scale) (*Section65Result, error) {
	out := &Section65Result{}
	for _, d := range []struct {
		name string
		get  func() (string, *engine.Engine, []int)
	}{
		{"tpch (sc)", func() (string, *engine.Engine, []int) {
			t := lineitemSmall(s)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			return t.Name(), e, datagen.LineitemSC()
		}},
		{"sales (sc)", func() (string, *engine.Engine, []int) {
			t := salesTable(s)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			return t.Name(), e, datagen.SalesSC()
		}},
	} {
		name, e, ords := d.get()
		sets := singleSets(ords)
		run := func(binary bool) (int, int64, time.Duration, error) {
			opts := prunedGBMQO()
			opts.BinaryOnly = binary
			wall, res, err := measure(e, engine.Request{Table: name, Sets: sets, Strategy: engine.StrategyGBMQO, Core: opts})
			if err != nil {
				return 0, 0, 0, err
			}
			return res.Search.OptimizerCalls, res.Report.RowsScanned, wall, nil
		}
		ca, ra, ta, err := run(false)
		if err != nil {
			return nil, err
		}
		cb, rb, tb, err := run(true)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Section65Row{Dataset: d.name, CallsAllTypes: ca, CallsBinary: cb,
			RowsAllTypes: ra, RowsBinary: rb, TimeAllTypes: ta, TimeBinary: tb})
	}
	return out, nil
}

// String renders the §6.5 comparison.
func (r *Section65Result) String() string {
	var b strings.Builder
	b.WriteString("Section 6.5. Binary-tree restriction (type (b) merges only)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s %12s %12s\n", "Dataset", "calls(all)", "calls(bin)", "rows(all)", "rows(bin)", "time(all)", "time(bin)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12d %12d %12d %12d %12s %12s\n", row.Dataset,
			row.CallsAllTypes, row.CallsBinary, row.RowsAllTypes, row.RowsBinary,
			row.TimeAllTypes.Round(time.Microsecond), row.TimeBinary.Round(time.Microsecond))
	}
	return b.String()
}

// Figure11Row is one (dataset, workload, pruning-config) cell of §6.6.
type Figure11Row struct {
	Dataset        string
	Config         string // None, M, S, S+M
	OptimizerCalls int
	// Reduction is the scan-work reduction of the plan found under this
	// pruning configuration, against the naive plan — the quantity that must
	// NOT collapse when pruning removes optimizer calls.
	Reduction float64
}

// Figure11Result reproduces Figure 11 (a) optimizer calls and (b) run-time
// reduction for the pruning techniques.
type Figure11Result struct {
	Rows []Figure11Row
}

// Figure11 sweeps pruning configurations over SC and TC workloads on TPC-H
// and SALES. The paper: combined pruning cuts optimizer calls by up to 80%
// while the plan still reduces run time by more than 65% on the two-column
// workloads.
func Figure11(s Scale) (*Figure11Result, error) {
	out := &Figure11Result{}
	configs := []struct {
		name     string
		sub, mon bool
	}{{"None", false, false}, {"M", false, true}, {"S", true, false}, {"S+M", true, true}}
	for _, d := range []struct {
		name string
		get  func() (string, *engine.Engine, []colset.Set)
	}{
		{"tpch (sc)", func() (string, *engine.Engine, []colset.Set) {
			t := lineitemSmall(s)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			return t.Name(), e, singleSets(datagen.LineitemSC())
		}},
		{"tpch (tc)", func() (string, *engine.Engine, []colset.Set) {
			t := lineitemSmall(s)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			return t.Name(), e, pairSets(datagen.LineitemSC())
		}},
		{"sales (sc)", func() (string, *engine.Engine, []colset.Set) {
			t := salesTable(s)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			return t.Name(), e, singleSets(datagen.SalesSC())
		}},
		{"sales (tc)", func() (string, *engine.Engine, []colset.Set) {
			t := salesTable(s)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			return t.Name(), e, pairSets(datagen.SalesSC())
		}},
	} {
		name, e, sets := d.get()
		_, nRes, err := measure(e, engine.Request{Table: name, Sets: sets, Strategy: engine.StrategyNaive})
		if err != nil {
			return nil, err
		}
		for _, cfg := range configs {
			opts := core.Options{PruneSubsumption: cfg.sub, PruneMonotonic: cfg.mon}
			_, res, err := measure(e, engine.Request{Table: name, Sets: sets, Strategy: engine.StrategyGBMQO, Core: opts})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Figure11Row{
				Dataset: d.name, Config: cfg.name,
				OptimizerCalls: res.Search.OptimizerCalls,
				Reduction:      workReduction(nRes.Report.RowsScanned, res.Report.RowsScanned),
			})
		}
	}
	return out, nil
}

// String renders Figure 11.
func (r *Figure11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11. Pruning techniques: optimizer calls and scan-work reduction vs naive\n")
	fmt.Fprintf(&b, "%-12s %-6s %12s %12s\n", "Dataset", "Prune", "Opt calls", "Reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-6s %12d %11.1f%%\n", row.Dataset, row.Config, row.OptimizerCalls, row.Reduction*100)
	}
	return b.String()
}

// Figure12Row is one cell of the §6.7 statistics-overhead study.
type Figure12Row struct {
	Dataset  string
	Workload string
	// StatsTime is wall time spent creating statistics during optimization.
	StatsTime time.Duration
	// Savings is naive minus GB-MQO execution time.
	Savings time.Duration
	// OverheadPct is StatsTime / Savings.
	OverheadPct float64
	// RowsProfiled is the number of sample rows the statistics read.
	RowsProfiled int64
	// RowsSaved is naive minus GB-MQO rows scanned.
	RowsSaved int64
	// WorkOverhead is RowsProfiled / RowsSaved: the overhead in the engine's
	// deterministic work units rather than wall time.
	WorkOverhead float64
}

// Figure12Result reproduces Figure 12.
type Figure12Result struct {
	Rows []Figure12Row
}

// Figure12 measures statistics-creation time as a percentage of the running
// time saved by the GB-MQO plan, over TPC-H small/large × SC/TC. The paper
// reports 1–15%, shrinking as the dataset grows.
func Figure12(s Scale) (*Figure12Result, error) {
	out := &Figure12Result{}
	// The overhead ratio is only meaningful when execution dominates noise;
	// below ~30k rows the two-column workload's savings are within jitter, so
	// the experiment enforces a scale floor regardless of the requested Scale.
	small, large := s.TPCHSmall, s.TPCHLarge
	if small < 30_000 {
		small = 30_000
	}
	if large < 3*small {
		large = 3 * small
	}
	for _, d := range []struct {
		name string
		rows int
	}{{"tpch-small", small}, {"tpch-large", large}} {
		for _, w := range []string{"SC", "TC"} {
			t := cachedLineitem(d.rows, s.Seed)
			e := newEngine(s.Seed)
			e.Catalog().Register(t)
			var sets []colset.Set
			if w == "SC" {
				sets = singleSets(datagen.LineitemSC())
			} else {
				sets = pairSets(datagen.LineitemSC())
			}
			naive, nRes, err := measureMin(e, engine.Request{Table: t.Name(), Sets: sets, Strategy: engine.StrategyNaive}, 5)
			if err != nil {
				return nil, err
			}
			e.Catalog().Stats().ResetAccounting()
			mqo, mRes, err := measureMin(e, engine.Request{Table: t.Name(), Sets: sets, Strategy: engine.StrategyGBMQO, Core: prunedGBMQO()}, 5)
			if err != nil {
				return nil, err
			}
			acct := e.Catalog().Stats().Accounting()
			savings := naive - mqo
			pct := 0.0
			if savings > 0 {
				pct = float64(acct.CreateTime) / float64(savings)
			}
			rowsSaved := nRes.Report.RowsScanned - mRes.Report.RowsScanned
			work := 0.0
			if rowsSaved > 0 {
				work = float64(acct.RowsProfiled) / float64(rowsSaved)
			}
			out.Rows = append(out.Rows, Figure12Row{
				Dataset: d.name, Workload: w,
				StatsTime: acct.CreateTime, Savings: savings, OverheadPct: pct,
				RowsProfiled: acct.RowsProfiled, RowsSaved: rowsSaved, WorkOverhead: work,
			})
		}
	}
	return out, nil
}

// String renders Figure 12.
func (r *Figure12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12. Statistics creation time vs running-time savings\n")
	fmt.Fprintf(&b, "%-12s %-4s %14s %14s %10s %14s %12s %14s\n",
		"Dataset", "WL", "Stats time", "Savings", "Overhead", "Rows profiled", "Rows saved", "Work overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-4s %14s %14s %9.1f%% %14d %12d %13.1f%%\n",
			row.Dataset, row.Workload,
			row.StatsTime.Round(time.Microsecond), row.Savings.Round(time.Microsecond), row.OverheadPct*100,
			row.RowsProfiled, row.RowsSaved, row.WorkOverhead*100)
	}
	return b.String()
}

// Figure13Row is one skew level of §6.8.
type Figure13Row struct {
	Zipf    float64
	Speedup float64
	// WorkRatio is the deterministic rows-scanned ratio (naive / GB-MQO).
	WorkRatio float64
}

// Figure13Result reproduces Figure 13.
type Figure13Result struct {
	Rows []Figure13Row
}

// Figure13 sweeps Zipf skew 0–3 on lineitem and reports the GB-MQO speedup
// over the naïve plan for the SC workload. The paper's finding: more skew →
// fewer distinct values → merging becomes more attractive → speedup grows.
func Figure13(s Scale) (*Figure13Result, error) {
	out := &Figure13Result{}
	for _, z := range []float64{0, 0.5, 1, 1.5, 2, 2.5, 3} {
		z := z
		li := cached(fmt.Sprintf("li-%d-%d-z%.1f", s.TPCHSmall, s.Seed, z), func() *table.Table {
			return datagen.Lineitem(datagen.LineitemOpts{Rows: s.TPCHSmall, Seed: s.Seed, Zipf: z})
		})
		e := newEngine(s.Seed)
		e.Catalog().Register(li)
		sets := singleSets(datagen.LineitemSC())
		naive, nRes, err := measure(e, engine.Request{Table: li.Name(), Sets: sets, Strategy: engine.StrategyNaive})
		if err != nil {
			return nil, err
		}
		mqo, mRes, err := measure(e, engine.Request{Table: li.Name(), Sets: sets, Strategy: engine.StrategyGBMQO, Core: prunedGBMQO()})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure13Row{
			Zipf: z, Speedup: speedup(naive, mqo),
			WorkRatio: float64(nRes.Report.RowsScanned) / float64(mRes.Report.RowsScanned),
		})
	}
	return out, nil
}

// String renders Figure 13.
func (r *Figure13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13. Speedup vs data skew (Zipfian)\n")
	fmt.Fprintf(&b, "%6s %9s %11s\n", "Zipf", "Speedup", "Work ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6.1f %8.2fx %10.2fx\n", row.Zipf, row.Speedup, row.WorkRatio)
	}
	return b.String()
}

// Figure14Row is one physical-design step of §6.9.
type Figure14Row struct {
	Step      string
	Indexes   int
	GBMQOTime time.Duration
	// RowsScanned is the deterministic work of the step's plan: base, temp
	// and index-group rows read.
	RowsScanned int64
	// ReceiptDateSingleton reports whether l_receiptdate stayed un-merged in
	// the plan (the paper observes it becomes a singleton once indexed).
	ReceiptDateSingleton bool
}

// Figure14Result reproduces Figure 14.
type Figure14Result struct {
	Rows []Figure14Row
}

// Figure14 starts from a clustered index on the primary key and adds ten
// non-clustered indexes one per step, re-running the SC workload after each.
// The paper's findings: run time falls as indexes arrive (dramatically for
// the dense l_comment), and plans adapt — l_receiptdate merges with other
// dates until its own index appears.
func Figure14(s Scale) (*Figure14Result, error) {
	li := lineitemSmall(s)
	steps := []struct {
		label string
		col   int
	}{
		{"l_receiptdate", datagen.LReceiptDate},
		{"l_shipdate", datagen.LShipDate},
		{"l_commitdate", datagen.LCommitDate},
		{"l_partkey", datagen.LPartKey},
		{"l_suppkey", datagen.LSuppKey},
		{"l_returnflag", datagen.LReturnFlag},
		{"l_linestatus", datagen.LLineStatus},
		{"l_shipinstruct", datagen.LShipInstruct},
		{"l_shipmode", datagen.LShipMode},
		{"l_comment", datagen.LComment},
	}
	out := &Figure14Result{}
	e := newEngine(s.Seed)
	e.Catalog().Register(li)
	// Clustered index on the combined primary key (orderkey, linenumber).
	if err := e.Catalog().AddIndex(index.Build(li, "pk", []int{datagen.LOrderKey, datagen.LLineNumber}, true)); err != nil {
		return nil, err
	}
	sets := singleSets(datagen.LineitemSC())
	record := func(label string, n int) error {
		wall, res, err := measure(e, engine.Request{Table: li.Name(), Sets: sets, Strategy: engine.StrategyGBMQO, Core: prunedGBMQO()})
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, Figure14Row{
			Step: label, Indexes: n, GBMQOTime: wall, RowsScanned: res.Report.RowsScanned,
			ReceiptDateSingleton: isSingletonRoot(res.Plan, datagen.LReceiptDate),
		})
		return nil
	}
	if err := record("clustered PK only", 0); err != nil {
		return nil, err
	}
	for i, st := range steps {
		if err := e.Catalog().AddIndex(index.Build(li, "nc_"+st.label, []int{st.col}, false)); err != nil {
			return nil, err
		}
		if err := record("+"+st.label, i+1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// isSingletonRoot reports whether the single-column set {col} is a root
// sub-plan of its own (not merged under any intermediate).
func isSingletonRoot(p *plan.Plan, col int) bool {
	want := colset.Of(col)
	for _, r := range p.Roots {
		if r.Set == want && len(r.Children) == 0 {
			return true
		}
	}
	return false
}

// String renders Figure 14.
func (r *Figure14Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 14. TPC-H variation with physical design (SC workload)\n")
	fmt.Fprintf(&b, "%-20s %8s %14s %13s %22s\n", "Step", "#NC ixs", "GB-MQO time", "Rows scanned", "receiptdate singleton")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %8d %14s %13d %22v\n", row.Step, row.Indexes,
			row.GBMQOTime.Round(time.Microsecond), row.RowsScanned, row.ReceiptDateSingleton)
	}
	return b.String()
}
