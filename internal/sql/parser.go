package sql

import (
	"fmt"
	"strconv"
	"strings"

	"gbmqo/internal/stats"
)

// Parse parses one supported statement. A trailing semicolon is allowed.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected input after statement")
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q", sym)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	t := p.cur().text
	p.pos++
	return t, nil
}

func (p *parser) query() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		it, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, it)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	q.From.Table = tbl
	if p.acceptKeyword("JOIN") {
		if q.From.Join, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if q.From.LeftCol, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		if q.From.RightCol, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WHERE") {
		for {
			c, err := p.condition()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, c)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		g, err := p.groupSpec()
		if err != nil {
			return nil, err
		}
		q.Group = g
	}
	return q, nil
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) selectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	name, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	it := SelectItem{}
	if aggNames[strings.ToUpper(name)] && p.acceptSymbol("(") {
		name = strings.ToUpper(name)
		it.Agg = name
		if p.acceptSymbol("*") {
			if name != "COUNT" {
				return it, p.errf("%s(*) is not valid", name)
			}
			it.AggStar = true
		} else {
			if it.Column, err = p.ident(); err != nil {
				return it, err
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return it, err
		}
	} else {
		it.Column = name
	}
	if p.acceptKeyword("AS") {
		if it.Alias, err = p.ident(); err != nil {
			return it, err
		}
	}
	return it, nil
}

func (p *parser) condition() (Condition, error) {
	col, err := p.ident()
	if err != nil {
		return Condition{}, err
	}
	var op stats.CmpOp
	switch {
	case p.acceptSymbol("="):
		op = stats.CmpEq
	case p.acceptSymbol("<>"):
		op = stats.CmpNe
	case p.acceptSymbol("<="):
		op = stats.CmpLe
	case p.acceptSymbol("<"):
		op = stats.CmpLt
	case p.acceptSymbol(">="):
		op = stats.CmpGe
	case p.acceptSymbol(">"):
		op = stats.CmpGt
	default:
		return Condition{}, p.errf("expected comparison operator")
	}
	lit, err := p.literal()
	if err != nil {
		return Condition{}, err
	}
	return Condition{Column: col, Op: op, Lit: lit}, nil
}

func (p *parser) literal() (litValue, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		return litValue{num: t.text}, nil
	case tokString:
		p.pos++
		return litValue{isString: true, s: t.text}, nil
	default:
		return litValue{}, p.errf("expected literal")
	}
}

func (p *parser) groupSpec() (GroupSpec, error) {
	switch {
	case p.acceptKeyword("GROUPING"):
		if err := p.expectKeyword("SETS"); err != nil {
			return GroupSpec{}, err
		}
		if err := p.expectSymbol("("); err != nil {
			return GroupSpec{}, err
		}
		g := GroupSpec{Kind: GroupGroupingSets}
		for {
			if err := p.expectSymbol("("); err != nil {
				return g, err
			}
			set, err := p.colList()
			if err != nil {
				return g, err
			}
			if len(set) == 0 {
				return g, p.errf("empty grouping set")
			}
			if err := p.expectSymbol(")"); err != nil {
				return g, err
			}
			g.Sets = append(g.Sets, set)
			if !p.acceptSymbol(",") {
				break
			}
		}
		return g, p.expectSymbol(")")
	case p.acceptKeyword("CUBE"):
		return p.parenCols(GroupCube)
	case p.acceptKeyword("ROLLUP"):
		return p.parenCols(GroupRollup)
	case p.acceptKeyword("COMBI"):
		if err := p.expectSymbol("("); err != nil {
			return GroupSpec{}, err
		}
		if p.cur().kind != tokNumber {
			return GroupSpec{}, p.errf("COMBI expects a size bound")
		}
		k, err := strconv.Atoi(p.cur().text)
		if err != nil || k < 1 {
			return GroupSpec{}, p.errf("invalid COMBI bound %q", p.cur().text)
		}
		p.pos++
		if err := p.expectSymbol(";"); err != nil {
			return GroupSpec{}, err
		}
		cols, err := p.colList()
		if err != nil {
			return GroupSpec{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return GroupSpec{}, err
		}
		return GroupSpec{Kind: GroupCombi, Cols: cols, CombiK: k}, nil
	default:
		cols, err := p.colList()
		if err != nil {
			return GroupSpec{}, err
		}
		if len(cols) == 0 {
			return GroupSpec{}, p.errf("empty GROUP BY list")
		}
		return GroupSpec{Kind: GroupPlain, Cols: cols}, nil
	}
}

func (p *parser) parenCols(kind GroupKind) (GroupSpec, error) {
	if err := p.expectSymbol("("); err != nil {
		return GroupSpec{}, err
	}
	cols, err := p.colList()
	if err != nil {
		return GroupSpec{}, err
	}
	if len(cols) == 0 {
		return GroupSpec{}, p.errf("empty column list")
	}
	if err := p.expectSymbol(")"); err != nil {
		return GroupSpec{}, err
	}
	return GroupSpec{Kind: kind, Cols: cols}, nil
}

func (p *parser) colList() ([]string, error) {
	var cols []string
	for p.cur().kind == tokIdent {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return cols, nil
}
