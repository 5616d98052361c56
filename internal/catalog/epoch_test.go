package catalog

import (
	"errors"
	"math/rand"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/index"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

func epochTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.New("t", []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	for i := 0; i < n; i++ {
		tb.AppendRow(table.Int(int64(i % 3)))
	}
	return tb
}

func TestRegisterDeltaAdvancesEpoch(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	base := epochTable(t, 4)
	c.Register(base)
	ep0 := c.Epoch("t")
	if ep0.Delta != 0 {
		t.Fatalf("fresh registration delta = %d", ep0.Delta)
	}
	next := base.Append([][]table.Value{{table.Int(9)}})
	ep1, err := c.RegisterDelta(next, ep0)
	if err != nil {
		t.Fatal(err)
	}
	if ep1.Version != ep0.Version || ep1.Delta != 1 {
		t.Fatalf("epoch after delta = %+v, want version %d delta 1", ep1, ep0.Version)
	}
	got, ep, ok := c.TableEpoch("t")
	if !ok || got != next || ep != ep1 {
		t.Fatalf("TableEpoch = (%v, %+v, %v)", got, ep, ok)
	}
}

func TestRegisterDeltaUnknownTable(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	if _, err := c.RegisterDelta(epochTable(t, 1), Epoch{}); err == nil {
		t.Fatal("RegisterDelta on an unregistered table should error")
	}
}

func TestRegisterResetsDelta(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	base := epochTable(t, 4)
	c.Register(base)
	if _, err := c.RegisterDelta(base.Append([][]table.Value{{table.Int(9)}}), c.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	v1 := c.Epoch("t").Version
	c.Register(epochTable(t, 4)) // full replacement
	ep := c.Epoch("t")
	if ep.Version <= v1 || ep.Delta != 0 {
		t.Fatalf("re-registration epoch = %+v, want version > %d, delta 0", ep, v1)
	}
}

func TestDropResetsDelta(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	base := epochTable(t, 4)
	c.Register(base)
	if _, err := c.RegisterDelta(base.Append([][]table.Value{{table.Int(9)}}), c.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	c.Drop("t")
	c.Register(epochTable(t, 4))
	if ep := c.Epoch("t"); ep.Delta != 0 {
		t.Fatalf("delta survived drop: %+v", ep)
	}
}

func TestRegisterDeltaDropsIndexes(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	base := epochTable(t, 6)
	c.Register(base)
	if err := c.AddIndex(index.Build(base, "ix", []int{0}, false)); err != nil {
		t.Fatal(err)
	}
	if len(c.Indexes("t")) != 1 {
		t.Fatal("index not registered")
	}
	if _, err := c.RegisterDelta(base.Append([][]table.Value{{table.Int(9)}}), c.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	// A stale index fast path would silently miss the delta rows.
	if len(c.Indexes("t")) != 0 {
		t.Fatal("indexes survived a delta registration")
	}
}

// TestRegisterDeltaRefusesAMovedTable: a snapshot appended to an epoch the
// table has since left (here, replaced by Register) is refused with a typed
// error, and the replacement stays installed.
func TestRegisterDeltaRefusesAMovedTable(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	base := epochTable(t, 4)
	c.Register(base)
	from := c.Epoch("t")
	replacement := epochTable(t, 2)
	c.Register(replacement)
	_, err := c.RegisterDelta(base.Append([][]table.Value{{table.Int(9)}}), from)
	var moved *EpochMovedError
	if !errors.As(err, &moved) || moved.From != from || moved.Now != c.Epoch("t") {
		t.Fatalf("RegisterDelta on a moved table = %v, want *EpochMovedError from %+v", err, from)
	}
	if got, ep, _ := c.TableEpoch("t"); got.NumRows() != replacement.NumRows() || ep.Delta != 0 {
		t.Fatalf("refused swap disturbed the table: %d rows at %+v", got.NumRows(), ep)
	}
}

// TestRegisterMidLineageRebuildsStats: appends carry a table's statistics
// forward, but a Register in the middle of the lineage replaces the table,
// so the replacement gets a cold service's values, not the old lineage's.
func TestRegisterMidLineageRebuildsStats(t *testing.T) {
	sets := []colset.Set{colset.Of(0, 1), colset.Of(1, 2), colset.Of(0, 1, 2)}
	gen := func(rows int, seed int64) *table.Table {
		r := rand.New(rand.NewSource(seed))
		tb := table.New("t", []table.ColumnDef{
			{Name: "a", Typ: table.TInt64}, {Name: "b", Typ: table.TInt64}, {Name: "c", Typ: table.TInt64},
		})
		for i := 0; i < rows; i++ {
			tb.AppendRow(table.Int(int64(r.Intn(300))), table.Int(int64(r.Intn(40))), table.Int(int64(r.Intn(9))))
		}
		return tb
	}
	svc := stats.NewService(stats.GEE, 500, 1)
	c := New(svc)
	base := gen(5_000, 1)
	c.Register(base)
	for _, set := range sets {
		svc.NDV(base, set)
	}
	next := base.Append([][]table.Value{{table.Int(1), table.Int(2), table.Int(3)}})
	if _, err := c.RegisterDelta(next, c.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		svc.NDV(next, set)
	}
	// A replacement built by appending to the lineage's head but registered
	// as a replacement, then one unrelated to the lineage.
	for _, repl := range []*table.Table{next.Append(tableRows(gen(1_000, 3))), gen(6_000, 2)} {
		c.Register(repl)
		cold := stats.NewService(stats.GEE, 500, 1)
		for _, set := range sets {
			if got, want := svc.NDV(repl, set), cold.NDV(repl, set); got != want {
				t.Fatalf("%v: NDV of the %d-row replacement = %v, a cold service %v", set, repl.NumRows(), got, want)
			}
		}
	}
}

// tableRows returns every row of tb as append-ready values.
func tableRows(tb *table.Table) [][]table.Value {
	rows := make([][]table.Value, tb.NumRows())
	for r := range rows {
		rows[r] = make([]table.Value, tb.NumCols())
		for c := range rows[r] {
			rows[r][c] = tb.Col(c).Value(r)
		}
	}
	return rows
}
