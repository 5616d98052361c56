package datagen

import (
	"gbmqo/internal/table"
)

// NRefOpts configures the PIR-NREF-like generator. The paper uses the
// neighboring_seq relation (78M rows, 10 columns): protein/sequence
// identifiers with very high cardinality plus a handful of categorical and
// banded-measure columns.
type NRefOpts struct {
	Rows int
	Seed int64
}

// NRef column ordinals.
const (
	NRefID = iota
	NNeighborID
	NOrganism
	NDBSource
	NSeqLength
	NScoreBand
	NEValueBand
	NMethod
	NClusterID
	NFlag
	nrefNumCols
)

var (
	nrefSources = []string{"PIR1", "PIR2", "PIR3", "SWISSPROT", "GENPEPT"}
	nrefMethods = []string{"BLAST", "FASTA", "SW"}
)

// NRefDefs returns the neighboring_seq-like schema.
func NRefDefs() []table.ColumnDef {
	return []table.ColumnDef{
		{Name: "nref_id", Typ: table.TInt64},
		{Name: "neighbor_id", Typ: table.TInt64},
		{Name: "organism", Typ: table.TInt64},
		{Name: "db_source", Typ: table.TString},
		{Name: "seq_length", Typ: table.TInt64},
		{Name: "score_band", Typ: table.TInt64},
		{Name: "evalue_band", Typ: table.TInt64},
		{Name: "method", Typ: table.TString},
		{Name: "cluster_id", Typ: table.TInt64},
		{Name: "flag", Typ: table.TInt64},
	}
}

// NRef generates the neighboring_seq-like table.
func NRef(opts NRefOpts) *table.Table {
	if opts.Rows <= 0 {
		opts.Rows = 100_000
	}
	r := rng(opts.Seed ^ 0x9ef)
	ids := opts.Rows / 3
	t := table.New("neighboring_seq", NRefDefs())
	t.Grow(opts.Rows)
	for i := 0; i < opts.Rows; i++ {
		t.AppendRow(
			table.Int(int64(r.Intn(ids))),
			table.Int(int64(r.Intn(ids))),
			table.Int(int64(r.Intn(800))),
			table.Str(pick(r, nrefSources)),
			table.Int(int64(50+r.Intn(1500))),
			table.Int(int64(r.Intn(20))),
			table.Int(int64(r.Intn(15))),
			table.Str(pick(r, nrefMethods)),
			table.Int(int64(r.Intn(4000))),
			table.Int(int64(r.Intn(2))),
		)
	}
	return t
}

// NRefSC returns all 10 single-column workload ordinals.
func NRefSC() []int {
	out := make([]int, nrefNumCols)
	for i := range out {
		out[i] = i
	}
	return out
}
