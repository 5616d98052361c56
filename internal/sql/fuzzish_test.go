package sql

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gbmqo/internal/engine"
)

// TestQuickParserNeverPanics throws arbitrary strings at the parser; it must
// return (possibly an error) without panicking.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", s, r)
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTokenSoupNeverPanics builds random-but-SQL-flavored token soups,
// which reach much deeper into the parser than arbitrary bytes.
func TestQuickTokenSoupNeverPanics(t *testing.T) {
	vocab := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "GROUPING", "SETS", "CUBE",
		"ROLLUP", "COMBI", "JOIN", "ON", "AND", "AS", "COUNT", "SUM", "MIN",
		"MAX", "(", ")", ",", ";", "*", "=", "<", ">", "<=", ">=", "<>",
		"a", "b", "t", "42", "3.14", "'x'",
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(20)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(vocab[r.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		input := sb.String()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on %q: %v", input, rec)
				}
			}()
			_, _ = Parse(input)
		}()
	}
}

// TestQuickExecutorRejectsGracefully runs random parseable-looking queries
// against a real engine; anything that parses must either execute or fail
// with an error — never panic.
func TestQuickExecutorRejectsGracefully(t *testing.T) {
	eng, _ := newSQLEngine(t)
	cols := []string{"a", "b", "c", "x", "nosuch"}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		c1, c2 := cols[r.Intn(len(cols))], cols[r.Intn(len(cols))]
		gclause := ""
		switch r.Intn(6) {
		case 0:
			gclause = "GROUP BY " + c1
		case 1:
			gclause = "GROUP BY GROUPING SETS ((" + c1 + "), (" + c2 + "))"
		case 2:
			gclause = "GROUP BY CUBE(" + c1 + ", " + c2 + ")"
		case 3:
			gclause = "GROUP BY ROLLUP(" + c1 + ")"
		case 4:
			gclause = "GROUP BY COMBI(2; " + c1 + ", " + c2 + ")"
		}
		where := ""
		if r.Intn(2) == 0 {
			where = "WHERE " + c1 + " >= 1"
		}
		q := "SELECT COUNT(*) FROM t " + where + " " + gclause
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on %q: %v", q, rec)
				}
			}()
			res, err := Run(eng, q, engine.Request{})
			if err == nil && res.Table == nil {
				t.Fatalf("nil result without error for %q", q)
			}
		}()
	}
}
