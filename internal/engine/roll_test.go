package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"gbmqo/internal/cache"
	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// isolationTable is a base table for roll tests: nine key columns of a few
// hundred values each (together wider than one packed uint64), a
// low-cardinality g, a value v that is NULL in every base row whose k1 is a
// multiple of 3 (so their SUMs start NULL and appends revive them), and a
// date d for MIN/MAX.
func isolationTable(rng *rand.Rand, rows int) *table.Table {
	defs := []table.ColumnDef{{Name: "g", Typ: table.TString}}
	for k := 1; k <= 9; k++ {
		defs = append(defs, table.ColumnDef{Name: fmt.Sprintf("k%d", k), Typ: table.TInt64})
	}
	defs = append(defs, table.ColumnDef{Name: "v", Typ: table.TInt64}, table.ColumnDef{Name: "d", Typ: table.TDate})
	t := table.New("iso", defs)
	for i := 0; i < rows; i++ {
		t.AppendRow(isolationRow(rng, 300, true)...)
	}
	return t
}

// isolationRow draws one row with key values below keyMax; nullable makes v
// NULL where k1 is a multiple of 3.
func isolationRow(rng *rand.Rand, keyMax int, nullable bool) []table.Value {
	row := []table.Value{table.Str(string(rune('a' + rng.Intn(3))))}
	for k := 0; k < 9; k++ {
		row = append(row, table.Int(int64(rng.Intn(keyMax))))
	}
	v := table.Int(int64(rng.Intn(100)))
	if nullable && row[1].I%3 == 0 {
		v = table.Null(table.TInt64)
	}
	return append(row, v, table.Date(int64(rng.Intn(5000))))
}

// isolationQueries are four entries no one of which subsumes another, so an
// append rolls every one: COUNT(*) over g, SUM with NULLs over (g, k1),
// MIN/MAX over k2, and COUNT(*) over all nine keys.
func isolationQueries() []SetQuery {
	const v, d = 10, 11
	all := colset.Of(1, 2, 3, 4, 5, 6, 7, 8, 9)
	return []SetQuery{
		{Set: colset.Of(0), Aggs: []exec.Agg{exec.CountStar()}},
		{Set: colset.Of(0, 1), Aggs: []exec.Agg{{Kind: exec.AggSum, Col: v, Name: "sv"}, {Kind: exec.AggCountStar, Name: "n"}}},
		{Set: colset.Of(2), Aggs: []exec.Agg{{Kind: exec.AggMin, Col: d, Name: "mn"}, {Kind: exec.AggMax, Col: d, Name: "mx"}}},
		{Set: all, Aggs: []exec.Agg{{Kind: exec.AggCountStar, Name: "c9"}}},
	}
}

// heldTable is a table an entry served, with the cold recompute of its set
// at the same epoch and its checksum when it was served.
type heldTable struct {
	label string
	got   *table.Table
	cold  *table.Table
	sum   uint64
}

// TestRollParentIsolation holds every table the cache serves along a chain
// of 20 seeded appends — COUNT(*), SUM whose NULLs appends revive, MIN/MAX,
// and a key set wider than 64 bits — and checks at the end that each still
// equals the cold recompute of its set at its own epoch, with the checksum it
// had when served: a roll shares its parent's key columns and scan image,
// and must never write where a reader of the parent looks. The failed-roll
// case makes one roll panic after its merged table is built, so its entry is
// invalidated and recomputed, and the appends that follow must not alias
// what the thrown-away roll wrote. Run under -race -count=20 in CI.
func TestRollParentIsolation(t *testing.T) {
	for _, failAt := range []int{-1, 3} {
		name := "chain"
		if failAt >= 0 {
			name = "failed roll"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(45))
			e := New(nil)
			e.Catalog().Register(isolationTable(rng, 1500))
			e.SetCache(cache.New(cache.Config{MaxBytes: 64 << 20}))
			queries := isolationQueries()
			var held []heldTable
			serve := func(step int) {
				for _, q := range queries {
					req := Request{Table: "iso", Sets: []colset.Set{q.Set}, PerSetAggs: map[colset.Set][]exec.Agg{q.Set: q.Aggs}, UseCache: true}
					warm, err := e.Run(req)
					if err != nil {
						t.Fatal(err)
					}
					req.UseCache = false
					cold, err := e.Run(req)
					if err != nil {
						t.Fatal(err)
					}
					got := warm.Report.Results[q.Set]
					tablesIdentical(t, fmt.Sprintf("step %d %s served", step, q.Set), got, cold.Report.Results[q.Set])
					held = append(held, heldTable{fmt.Sprintf("step %d %s", step, q.Set), got, cold.Report.Results[q.Set], cache.ChecksumTable(got)})
				}
			}
			serve(0)
			var fail atomic.Bool
			exec.Testing.SetFailPoint(func(site string) {
				if site == "cache.refresh" && fail.CompareAndSwap(true, false) {
					panic("injected roll failure")
				}
			})
			defer exec.Testing.ClearFailPoint()
			for step := 1; step <= 20; step++ {
				rows := make([][]table.Value, 40)
				for i := range rows {
					rows[i] = isolationRow(rng, 300+10*step, false) // new keys, no NULLs
				}
				fail.Store(step == failAt)
				rep, err := e.Append("iso", rows)
				if err != nil {
					t.Fatal(err)
				}
				want := len(queries)
				if step == failAt {
					want--
					if rep.Invalidated != 1 {
						t.Fatalf("step %d: the failed roll left %d entries invalidated, want 1", step, rep.Invalidated)
					}
				}
				if rep.Refreshed != want {
					t.Fatalf("step %d: %d entries rolled forward, want %d", step, rep.Refreshed, want)
				}
				serve(step)
			}
			for _, h := range held {
				tablesIdentical(t, h.label+" at the end", h.got, h.cold)
				if cache.ChecksumTable(h.got) != h.sum {
					t.Fatalf("%s: checksum changed after it was served", h.label)
				}
			}
		})
	}
}

// TestAncestorPricedByRows: after an append rolls a cached superset forward,
// a query answered from it prices the ancestor by its cached table's rows —
// no statistic is built for the ancestor's set over the new snapshot — and
// the answer is identical to a cold run.
func TestAncestorPricedByRows(t *testing.T) {
	e, _ := newCachedEngine(t, 4000, 64<<20)
	anc := colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipMode)
	if _, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{anc}, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append("lineitem", deltaRows(200, 45)); err != nil {
		t.Fatal(err)
	}
	next, _, _ := e.Catalog().TableEpoch("lineitem")
	q := colset.Of(datagen.LReturnFlag)
	e.Catalog().Stats().ResetAccounting()
	warm, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{q}, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Cache.AncestorHits != 1 {
		t.Fatalf("query after the append: %+v, want one ancestor hit", warm.Report.Cache)
	}
	if _, built := e.Catalog().Stats().CachedNDV(next, anc); built {
		t.Fatalf("pricing the ancestor built a statistic for %s", anc)
	}
	// One statistic is built: the queried set's, which the cost model reads
	// for its group term.
	if acct := e.Catalog().Stats().Accounting(); acct.StatsCreated != 1 {
		t.Fatalf("answering from the ancestor built %d statistics, want the queried set's only", acct.StatsCreated)
	}
	cold, err := e.Run(Request{Table: "lineitem", Sets: []colset.Set{q}})
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, "ancestor-derived answer", warm.Report.Results[q], cold.Report.Results[q])
}
