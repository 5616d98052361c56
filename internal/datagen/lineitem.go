package datagen

import (
	"fmt"
	"math/rand"

	"gbmqo/internal/table"
)

// LineitemOpts configures the TPC-H-like lineitem generator.
type LineitemOpts struct {
	Rows int
	Seed int64
	// Zipf is the skew factor z applied to categorical/identifier value
	// selection (0 = uniform, the TPC-H default; §6.8 sweeps 0..3).
	Zipf float64
	// Days is the shipdate domain size. The default (120) keeps the
	// date-cardinality-to-row-count ratio of the paper's 6M-row / ~2500-day
	// setup at our reduced scale: what matters for plan choice is that the
	// NDV of merged date sets stays well below the row count.
	Days int
}

func (o *LineitemOpts) normalize() {
	if o.Rows <= 0 {
		o.Rows = 100_000
	}
	if o.Days <= 0 {
		o.Days = 120
	}
}

// Lineitem column ordinals, in schema order.
const (
	LOrderKey = iota
	LPartKey
	LSuppKey
	LLineNumber
	LQuantity
	LExtendedPrice
	LDiscount
	LTax
	LReturnFlag
	LLineStatus
	LShipDate
	LCommitDate
	LReceiptDate
	LShipInstruct
	LShipMode
	LComment
	lineitemNumCols
)

var (
	returnFlags   = []string{"N", "A", "R"}
	lineStatuses  = []string{"O", "F"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"}
	commentWords  = []string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
		"requests", "packages", "accounts", "ideas", "pending", "final",
		"express", "regular", "special", "bold", "ironic", "even", "silent",
		"above", "against", "along", "among", "sleep", "wake", "nag", "haggle",
	}
)

// LineitemDefs returns the lineitem schema.
func LineitemDefs() []table.ColumnDef {
	return []table.ColumnDef{
		{Name: "l_orderkey", Typ: table.TInt64},
		{Name: "l_partkey", Typ: table.TInt64},
		{Name: "l_suppkey", Typ: table.TInt64},
		{Name: "l_linenumber", Typ: table.TInt64},
		{Name: "l_quantity", Typ: table.TInt64},
		{Name: "l_extendedprice", Typ: table.TFloat64},
		{Name: "l_discount", Typ: table.TFloat64},
		{Name: "l_tax", Typ: table.TFloat64},
		{Name: "l_returnflag", Typ: table.TString},
		{Name: "l_linestatus", Typ: table.TString},
		{Name: "l_shipdate", Typ: table.TDate},
		{Name: "l_commitdate", Typ: table.TDate},
		{Name: "l_receiptdate", Typ: table.TDate},
		{Name: "l_shipinstruct", Typ: table.TString},
		{Name: "l_shipmode", Typ: table.TString},
		{Name: "l_comment", Typ: table.TString},
	}
}

// Lineitem generates a TPC-H-shaped lineitem table. Cardinality structure
// (domains are scaled so NDV/rowcount ratios at laptop row counts match the
// paper's 6M-row setup — the quantity that decides which merges pay off):
//
//   - l_orderkey/l_partkey/l_suppkey: high/medium NDV identifiers;
//   - l_linenumber (4), l_quantity (10), l_discount (11), l_tax (9),
//     l_returnflag (3), l_linestatus (2), l_shipinstruct (4), l_shipmode (7):
//     the low-NDV columns the paper's optimizer merges into one intermediate;
//   - l_shipdate / l_commitdate / l_receiptdate: correlated dates (receipt =
//     ship + 1..3, commit = ship + 4..10) so merged date sets stay well below
//     the row count, reproducing the paper's Example 1 plan where
//     (l_receiptdate, l_commitdate) is materialized as one intermediate;
//   - l_comment: high-NDV text that no merge helps (its §6.9 role).
func Lineitem(opts LineitemOpts) *table.Table {
	opts.normalize()
	r := rng(opts.Seed ^ 0x11ea17e4)
	draw := newZipfDrawer(r, opts.Zipf)
	t := table.New("lineitem", LineitemDefs())
	t.Grow(opts.Rows)
	orders := opts.Rows/4 + 1
	parts := opts.Rows/20 + 1
	supps := opts.Rows/100 + 1
	for i := 0; i < opts.Rows; i++ {
		ship := int64(draw.index(opts.Days))
		receipt := ship + 1 + int64(r.Intn(3))
		commit := ship + 4 + int64(r.Intn(7))
		qty := int64(1 + draw.index(10))
		price := float64(qty) * (900 + float64(r.Intn(100_000))/100)
		t.AppendRow(
			table.Int(int64(draw.index(orders))),
			table.Int(int64(draw.index(parts))),
			table.Int(int64(draw.index(supps))),
			table.Int(int64(1+r.Intn(4))),
			table.Int(qty),
			table.Float(price),
			table.Float(float64(draw.index(11))/100),
			table.Float(float64(draw.index(9))/100),
			table.Str(returnFlags[draw.index(len(returnFlags))]),
			table.Str(lineStatuses[draw.index(len(lineStatuses))]),
			table.Date(ship),
			table.Date(commit),
			table.Date(receipt),
			table.Str(shipInstructs[draw.index(len(shipInstructs))]),
			table.Str(shipModes[draw.index(len(shipModes))]),
			table.Str(randComment(r)),
		)
	}
	return t
}

func randComment(r *rand.Rand) string {
	n := 3 + r.Intn(4)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += pick(r, commentWords)
	}
	// Suffix a number so most comments are distinct, like real l_comment.
	return fmt.Sprintf("%s %d", s, r.Intn(1_000_000))
}

// LineitemSC returns the column ordinals of the paper's "SC" workload on
// lineitem: all single-column Group By queries except the floating-point
// columns (l_extendedprice, l_discount, l_tax) and the near-unique l_orderkey,
// i.e. 12 columns (§6.1: "the input was 12 single column Group By queries").
func LineitemSC() []int {
	return []int{
		LPartKey, LSuppKey, LLineNumber, LQuantity, LReturnFlag, LLineStatus,
		LShipDate, LCommitDate, LReceiptDate, LShipInstruct, LShipMode, LComment,
	}
}

// LineitemCONT returns the §6.1 "CONT" workload: grouping sets with many
// containment relationships — {(ship), (commit), (receipt), (ship, commit),
// (ship, receipt), (commit, receipt)}.
func LineitemCONT() [][]int {
	return [][]int{
		{LShipDate},
		{LCommitDate},
		{LReceiptDate},
		{LShipDate, LCommitDate},
		{LShipDate, LReceiptDate},
		{LCommitDate, LReceiptDate},
	}
}
