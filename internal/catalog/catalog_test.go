package catalog

import (
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/index"
	"gbmqo/internal/stats"
	"gbmqo/internal/table"
)

func newTable(name string) *table.Table {
	t := table.New(name, []table.ColumnDef{{Name: "a", Typ: table.TInt64}})
	t.AppendRow(table.Int(1))
	t.AppendRow(table.Int(2))
	return t
}

func TestRegisterAndResolve(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	tb := newTable("t")
	c.Register(tb)
	got, ok := c.Table("t")
	if !ok || got != tb {
		t.Fatal("table not resolvable")
	}
	if _, ok := c.Table("missing"); ok {
		t.Fatal("missing table resolved")
	}
	if c.MustTable("t") != tb {
		t.Fatal("MustTable wrong")
	}
}

func TestMustTablePanics(t *testing.T) {
	c := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable did not panic")
		}
	}()
	c.MustTable("nope")
}

func TestReRegisterInvalidates(t *testing.T) {
	svc := stats.NewService(stats.Exact, 0, 1)
	c := New(svc)
	tb := newTable("t")
	c.Register(tb)
	if err := c.AddIndex(index.Build(tb, "ix", []int{0}, false)); err != nil {
		t.Fatal(err)
	}
	svc.NDV(tb, colset.Of(0))
	svc.ResetAccounting()

	// Replacing the table must drop indexes and stats.
	tb2 := newTable("t")
	c.Register(tb2)
	if got := c.Indexes("t"); len(got) != 0 {
		t.Fatalf("indexes survived re-register: %d", len(got))
	}
	svc.NDV(tb2, colset.Of(0))
	if svc.Accounting().StatsCreated != 1 {
		t.Fatal("stats cache survived re-register")
	}
}

func TestDrop(t *testing.T) {
	c := New(stats.NewService(stats.Exact, 0, 1))
	tb := newTable("t")
	c.Register(tb)
	if err := c.AddIndex(index.Build(tb, "ix", []int{0}, false)); err != nil {
		t.Fatal(err)
	}
	c.Drop("t")
	if _, ok := c.Table("t"); ok {
		t.Fatal("dropped table still resolvable")
	}
	if len(c.Indexes("t")) != 0 {
		t.Fatal("dropped table still has indexes")
	}
	c.Drop("t") // idempotent
}

func TestAddIndexErrors(t *testing.T) {
	c := New(nil)
	tb := newTable("t")
	ix := index.Build(tb, "ix", []int{0}, false)
	if err := c.AddIndex(ix); err == nil {
		t.Fatal("index on unregistered table accepted")
	}
	c.Register(tb)
	if err := c.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(index.Build(tb, "ix", []int{0}, true)); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	c.DropIndexes("t")
	if len(c.Indexes("t")) != 0 {
		t.Fatal("DropIndexes left indexes behind")
	}
}

func TestTableNamesSorted(t *testing.T) {
	c := New(nil)
	c.Register(newTable("zeta"))
	c.Register(newTable("alpha"))
	names := c.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("TableNames = %v", names)
	}
}
