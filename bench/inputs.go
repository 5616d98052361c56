package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gbmqo"
	"gbmqo/internal/datagen"
	"gbmqo/internal/loadgen"
)

// batchInputs are the three batches one round answers: SC-12 (the paper's 12
// single-column sets), PAIR-10 (10 two-column sets over the same columns,
// arranged by the seed) and CONT-8 (containment chains over dates,
// flags and ship mode) written as one GROUPING SETS statement.
type batchInputs struct {
	sc       [][]string
	pair     [][]string
	cont     [][]string
	contStmt string
}

func newBatchInputs(seed int64) batchInputs {
	in := batchInputs{}
	defs := datagen.LineitemDefs()
	for _, ord := range datagen.LineitemSC() {
		in.sc = append(in.sc, []string{defs[ord].Name})
	}
	// A pair's cost is its group count, and the optimizer's choice of what to
	// materialize follows the columns' NDVs, so a free draw from the 66 pairs
	// makes one seed's round half again another's (l_comment three times
	// against never), and even arranging columns of different NDV moved the
	// parallel round by 10%. The seed therefore permutes only columns that
	// behave alike — the three dates, and the two 4-valued columns — inside
	// a fixed template of pairs: 12 arrangements that all cost the same. The
	// identifier-grade columns stay out; SC-12 already pays for near-unique
	// keys on every round.
	rng := rand.New(rand.NewSource(seed))
	perm := func(cols ...string) []string {
		rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		return cols
	}
	d := perm("l_shipdate", "l_commitdate", "l_receiptdate")
	four := perm("l_linenumber", "l_shipinstruct")
	in.pair = [][]string{
		{d[0], d[1]}, {d[0], d[2]}, {d[1], d[2]},
		{d[0], "l_linestatus"}, {d[1], "l_returnflag"}, {d[2], four[0]},
		{"l_linestatus", four[1]}, {"l_returnflag", four[0]},
		{four[1], "l_shipmode"}, {"l_shipmode", "l_quantity"},
	}
	in.cont = [][]string{
		{"l_shipdate"},
		{"l_shipdate", "l_commitdate"},
		{"l_shipdate", "l_commitdate", "l_receiptdate"},
		{"l_commitdate"},
		{"l_returnflag"},
		{"l_returnflag", "l_linestatus"},
		{"l_returnflag", "l_linestatus", "l_shipmode"},
		{"l_shipmode"},
	}
	sets := make([]string, len(in.cont))
	for i, s := range in.cont {
		sets[i] = "(" + strings.Join(s, ", ") + ")"
	}
	in.contStmt = "SELECT COUNT(*) FROM " + tableName + " GROUP BY GROUPING SETS (" + strings.Join(sets, ", ") + ")"
	return in
}

// lattice is a serve workload's query population: every non-empty subset of
// at most three of the dims lowest-NDV columns, coarsest first, so rank 0 is
// the most popular query of the Zipf page streams.
func lattice(t *gbmqo.Table, dims int) []gbmqo.GroupQuery {
	cols := loadgen.PickGroupCols(t, dims, 1000)
	return loadgen.LatticeWorkload(tableName, cols, 3, nil)
}

// zipf draws ranks 0..n-1 with weight 1/(rank+1)^s by inverse CDF.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	return zipf{cum}
}

func (z zipf) pick(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cum, rng.Float64()), len(z.cum)-1)
}

const (
	pageQueries = 8
	zipfS       = 1.1
	maxThink    = 2 * time.Millisecond
)

// pageStream is one client's endless seeded sequence of pages, each a list
// of lattice ranks. Duplicates inside a page are kept: dashboards repeat
// themselves, and the scheduler's dedup exists for that.
type pageStream struct {
	rng *rand.Rand
	z   zipf
}

func newPageStream(seed int64, client, population int) *pageStream {
	return &pageStream{rng: rand.New(rand.NewSource(seed*1000003 + int64(client))), z: newZipf(population, zipfS)}
}

func (p *pageStream) next() []int {
	page := make([]int, pageQueries)
	for i := range page {
		page[i] = p.z.pick(p.rng)
	}
	return page
}

// think draws the pause before a client's next page, uniform below
// maxThink. Two clients that ask the instant they are answered lock phase
// through the scheduler's batch window — always sharing a window or never —
// and which of the two a process falls into moved the median page by 10%
// from run to run; a random pause makes every run sample every phase.
func (p *pageStream) think() time.Duration {
	return time.Duration(p.rng.Int63n(int64(maxThink)))
}

const (
	appendRows  = 256
	appendProto = 4096
)

// appendStream hands out the writer's seeded row batches: a rotating window
// over rows sampled from the base table, so deltas carry its distributions.
func appendStream(t *gbmqo.Table, seed int64) *loadgen.Workload {
	return &loadgen.Workload{Table: tableName, Proto: loadgen.ProtoRows(t, appendProto, seed+7)}
}

// scheduleFNV fingerprints the operation sequence a seed generates — the
// pairs, the first pages of every client's stream and the first append
// batches — folded to 48 bits so it survives a float64 unchanged.
func scheduleFNV(seed int64, in batchInputs, population int, writer *loadgen.Workload) float64 {
	h := fnv.New64a()
	for _, p := range in.pair {
		h.Write([]byte(strings.Join(p, ",") + ";"))
	}
	h.Write([]byte(in.contStmt))
	var buf [8]byte
	if population > 0 {
		for c := 0; c < clients; c++ {
			ps := newPageStream(seed, c, population)
			for i := 0; i < 512; i++ {
				for _, q := range ps.next() {
					binary.LittleEndian.PutUint64(buf[:], uint64(q))
					h.Write(buf[:])
				}
			}
		}
	}
	if writer != nil {
		for i := 0; i < 16; i++ {
			for _, row := range writer.AppendBatch(i, appendRows) {
				for _, v := range row {
					h.Write([]byte(v.String() + "|"))
				}
			}
		}
	}
	return float64(h.Sum64() & (1<<48 - 1))
}
