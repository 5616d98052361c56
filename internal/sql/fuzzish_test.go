package sql

import (
	"math/rand"
	"strings"
	"testing"

	"gbmqo/internal/engine"
)

// soupVocab is the SQL-flavored token set the parser tests build inputs from.
var soupVocab = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "BY", "GROUPING", "SETS", "CUBE",
	"ROLLUP", "COMBI", "JOIN", "ON", "AND", "AS", "COUNT", "SUM", "MIN",
	"MAX", "(", ")", ",", ";", "*", "=", "<", ">", "<=", ">=", "<>",
	"a", "b", "t", "42", "3.14", "'x'",
}

// FuzzParse throws arbitrary strings at the parser; it must return (possibly
// an error) without panicking. Seeds: each token of soupVocab, the whole
// vocabulary as one soup, and a query of each grouping form.
func FuzzParse(f *testing.F) {
	for _, tok := range soupVocab {
		f.Add(tok)
	}
	f.Add(strings.Join(soupVocab, " "))
	f.Add("SELECT a, b, COUNT(*) FROM t WHERE a >= 1 GROUP BY GROUPING SETS ((a), (b))")
	f.Add("SELECT SUM(a) FROM t GROUP BY CUBE(a, b)")
	f.Add("SELECT MIN(a) FROM t GROUP BY ROLLUP(a, b)")
	f.Add("SELECT MAX(a) FROM t GROUP BY COMBI(2; a, b)")
	f.Fuzz(func(t *testing.T, s string) {
		_, _ = Parse(s)
	})
}

// TestQuickTokenSoupNeverPanics builds random-but-SQL-flavored token soups,
// which reach much deeper into the parser than arbitrary bytes.
func TestQuickTokenSoupNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(20)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(soupVocab[r.Intn(len(soupVocab))])
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
