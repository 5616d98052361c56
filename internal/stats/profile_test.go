package stats

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gbmqo/internal/colset"
	"gbmqo/internal/datagen"
	"gbmqo/internal/table"
)

// refProfile is the map-based profiler the counting kernel replaced, kept as
// the reference: a fresh map keyed by the same 64-bit mix, filled by reading
// the base table's code columns at the sampled rows, then a second map for
// the frequencies of frequencies.
func refProfile(t *table.Table, rows []int32, set colset.Set) (d int, freq map[int]int) {
	cols := set.Columns()
	codes := make([]table.CodeView, len(cols))
	for i, c := range cols {
		codes[i] = t.Col(c).View()
	}
	counts := make(map[uint64]int32, len(rows))
	for _, row := range rows {
		h := uint64(0x9e3779b97f4a7c15)
		for _, col := range codes {
			h ^= uint64(col.At(int(row))) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
		}
		counts[h]++
	}
	freq = make(map[int]int)
	for _, c := range counts {
		freq[int(c)]++
	}
	return len(counts), freq
}

// stringKeyProfile is the exact counter: each row's codes laid out as a byte
// string key, so no mix, radix or dictionary size is involved.
func stringKeyProfile(t *table.Table, rows []int32, set colset.Set) (d int, freq map[int]int) {
	counts := make(map[string]int, len(rows))
	var key []byte
	for _, row := range rows {
		key = key[:0]
		for _, c := range set.Columns() {
			key = binary.LittleEndian.AppendUint32(key, t.Col(c).Code(int(row)))
		}
		counts[string(key)]++
	}
	freq = make(map[int]int)
	for _, c := range counts {
		freq[c]++
	}
	return len(counts), freq
}

// sampledRows lists the sample's row ordinals (every row for a whole-table
// sample).
func sampledRows(s *Sample) []int32 {
	if s.rows != nil {
		return s.rows
	}
	rows := make([]int32, s.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// asSlice lays a reference frequency map out the way Profile.Freq is.
func asSlice(freq map[int]int) []int {
	var out []int
	for j, f := range freq {
		for j >= len(out) {
			out = append(out, 0)
		}
		out[j] = f
	}
	return out
}

func differentialTables(rows int) []*table.Table {
	return []*table.Table{
		datagen.Lineitem(datagen.LineitemOpts{Rows: rows, Seed: 1}),
		datagen.Sales(datagen.SalesOpts{Rows: rows, Seed: 2}),
		datagen.NRef(datagen.NRefOpts{Rows: rows, Seed: 3}),
		datagen.Customers(datagen.CustomersOpts{Rows: rows, Seed: 4}), // holds NULLs
	}
}

// randomSets draws count column sets of 1–8 columns over a width-column
// schema.
func randomSets(r *rand.Rand, width, count int) []colset.Set {
	sets := make([]colset.Set, count)
	for i := range sets {
		for k := 1 + r.Intn(8); sets[i].Len() < min(k, width); {
			sets[i] = sets[i].Add(r.Intn(width))
		}
	}
	return sets
}

// checkProfile compares the kernel's profile of set with the map-based
// reference and with the string-keyed exact counter.
func checkProfile(t *testing.T, tb *table.Table, s *Sample, set colset.Set) {
	t.Helper()
	refD, refFreq := refProfile(tb, sampledRows(s), set)
	wantD, wantFreq := stringKeyProfile(tb, sampledRows(s), set)
	if refD != wantD || !slices.Equal(asSlice(refFreq), asSlice(wantFreq)) {
		t.Fatalf("%s %v: references disagree: d %d vs %d", tb.Name(), set, refD, wantD)
	}
	p := s.ProfileOf(set)
	if p.SampleSize() != s.Size() || p.N != tb.NumRows() || p.Distinct() != wantD {
		t.Fatalf("%s %v: profile n=%d N=%d d=%d, want n=%d N=%d d=%d",
			tb.Name(), set, p.SampleSize(), p.N, p.Distinct(), s.Size(), tb.NumRows(), wantD)
	}
	if want := asSlice(wantFreq); !slices.Equal(p.Freq, want) {
		t.Fatalf("%s %v: Freq = %v, want %v", tb.Name(), set, p.Freq, want)
	}
}

// TestProfileMatchesReference: over seeded random column sets the kernel's
// profile — n, d and every frequency — is the reference's, on a drawn sample
// (interleaved sets reuse the scratch table and the image) and on the
// whole-table sample ExactNDV runs on.
func TestProfileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tb := range differentialTables(12_000) {
		drawn, whole := NewSample(tb, 3000, 7), NewSample(tb, tb.NumRows(), 7)
		for _, set := range randomSets(r, tb.NumCols(), 40) {
			checkProfile(t, tb, drawn, set)
			checkProfile(t, tb, whole, set)
		}
	}
}

// TestProfileStampWrap: when the generation stamp wraps, slots stamped in an
// earlier cycle must not read as occupied.
func TestProfileStampWrap(t *testing.T) {
	tb := uniformTable(20_000, 100_000, 3) // key spaces above the dense bound
	s := NewSample(tb, 1000, 1)
	for _, set := range []colset.Set{colset.Of(0), colset.Of(0, 1)} {
		if path, _ := s.path(set); path != packed {
			t.Fatalf("%v takes path %d, want the stamped table", set, path)
		}
	}
	s.ProfileOf(colset.Of(0)) // leaves slots stamped 1
	s.gen = ^uint32(0)
	checkProfile(t, tb, s, colset.Of(0, 1)) // wraps
	checkProfile(t, tb, s, colset.Of(0))
}

// refNDV is Service.estimate's arithmetic over the reference profile, with
// single columns counted by a scan (NULL is one group).
func refNDV(tb *table.Table, rows []int32, set colset.Set, e Estimator) float64 {
	if set.Len() == 1 {
		return float64(tb.Col(set.Min()).DistinctCount())
	}
	d, freq := refProfile(tb, rows, set)
	p := Profile{N: tb.NumRows(), n: len(rows), d: d, Freq: asSlice(freq)}
	if p.n >= p.N {
		return float64(d)
	}
	lo, hi := 1.0, 1.0
	set.ForEach(func(c int) {
		single := float64(tb.Col(c).DistinctCount())
		lo = max(lo, single)
		hi *= single
	})
	hi = min(hi, float64(p.N))
	if float64(d) > saturationFraction*float64(p.n) {
		return clamp(birthdayEstimate(p, float64(p.N)), lo, hi)
	}
	return clamp(p.Estimate(e), lo, hi)
}

func TestServiceNDVMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, tb := range differentialTables(12_000) {
		sets := randomSets(r, tb.NumCols(), 40)
		for _, e := range []Estimator{GEE, Shlosser, Chao} {
			svc := NewService(e, 3000, 4)
			rows := NewSample(tb, 3000, 4).rows
			for _, set := range sets {
				if got, want := svc.NDV(tb, set), refNDV(tb, rows, set, e); got != want {
					t.Fatalf("%s %v %v: NDV = %v, want %v", tb.Name(), e, set, got, want)
				}
			}
		}
	}
}

// TestWholeTableSampleIsExact: a sample that holds every row is a census, so
// every estimator must answer the exact count. The saturated pairs used to
// be extrapolated to the row count by the birthday estimate.
func TestWholeTableSampleIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, tb := range differentialTables(5000) {
		sets := append(randomSets(r, tb.NumCols(), 30), colset.Range(min(tb.NumCols(), 8)))
		if tb.Name() == "lineitem" {
			sets = append(sets, colset.Of(datagen.LPartKey, datagen.LSuppKey), colset.Of(datagen.LPartKey, datagen.LShipMode))
		}
		for _, e := range []Estimator{GEE, Shlosser, Chao, Exact} {
			for _, size := range []int{tb.NumRows(), 2 * tb.NumRows()} {
				svc := NewService(e, size, 1)
				for _, set := range sets {
					if got, want := svc.NDV(tb, set), float64(ExactNDV(tb, set)); got != want {
						t.Errorf("%s %v sample %d %v: NDV = %v, exact = %v", tb.Name(), e, size, set, got, want)
					}
				}
			}
		}
	}
}

// TestExactNDVMatchesStringKeys checks the kernel-backed ExactNDV against
// the string-keyed counter it replaced (no 64-bit mix involved).
func TestExactNDVMatchesStringKeys(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, tb := range differentialTables(12_000) {
		rows := sampledRows(NewSample(tb, tb.NumRows(), 0))
		for _, set := range randomSets(r, tb.NumCols(), 15) {
			want, _ := stringKeyProfile(tb, rows, set)
			if got := ExactNDV(tb, set); got != want {
				t.Fatalf("%s %v: ExactNDV = %d, want %d", tb.Name(), set, got, want)
			}
			if got := NewService(Exact, 0, 1).NDV(tb, set); got != float64(want) {
				t.Fatalf("%s %v: Exact service NDV = %v, want %d", tb.Name(), set, got, want)
			}
		}
	}
}

// pathSets names one lineitem set per key path: at 30 000 and 100 000 rows
// with a 10 000-row sample, a ship date × return flag key space is ~480 keys,
// part × supplier ~450 000 to 5 million, and six wide columns (order, part,
// supplier, price, ship date, comment) more than 2⁶³.
var pathSets = []struct {
	name string
	path keyPath
	set  colset.Set
}{
	{"dense", dense, colset.Of(datagen.LShipDate, datagen.LReturnFlag)},
	{"packed", packed, colset.Of(datagen.LPartKey, datagen.LSuppKey)},
	{"mixed", mixed, colset.Of(datagen.LOrderKey, datagen.LPartKey, datagen.LSuppKey,
		datagen.LExtendedPrice, datagen.LShipDate, datagen.LComment)},
}

// TestProfileSteadyStateAllocs: once a set's columns are gathered and its
// path's scratch exists, a profile allocates nothing, on every path.
func TestProfileSteadyStateAllocs(t *testing.T) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 30_000, Seed: 1})
	s := NewSample(tb, 10_000, 1)
	for _, ps := range pathSets {
		if path, _ := s.path(ps.set); path != ps.path {
			t.Fatalf("%s set %v takes path %d", ps.name, ps.set, path)
		}
		s.ProfileOf(ps.set)
		if allocs := testing.AllocsPerRun(20, func() { s.ProfileOf(ps.set) }); allocs != 0 {
			t.Fatalf("steady-state %s ProfileOf allocates %v times per call", ps.name, allocs)
		}
	}
}

// codeTable builds a table whose columns hold the given raw codes over empty
// dictionaries, so every non-NULL code is planted above DictSize.
func codeTable(cols ...[]uint32) *table.Table {
	b := table.NewBuilder("codes", len(cols[0]), len(cols))
	for i, codes := range cols {
		c := b.Add(table.ColumnDef{Name: fmt.Sprintf("c%d", i), Typ: table.TInt64})
		for r, code := range codes {
			b.Set(r, c, code)
		}
	}
	return b.Table()
}

// radixTable builds rows rows whose column i takes codes below radices[i].
// Row 0 carries every radix−1, so a whole-table sample's key space for a set
// is the product of its radices; the other rows repeat tuples from a pool of
// rows/3, so profiles see repeated keys.
func radixTable(rows int, seed int64, radices ...uint64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	pool := make([][]uint32, rows/3+1)
	for i := range pool {
		pool[i] = make([]uint32, len(radices))
		for c, radix := range radices {
			pool[i][c] = uint32(r.Uint64() % radix)
			if i == 0 {
				pool[i][c] = uint32(radix - 1)
			}
		}
	}
	cols := make([][]uint32, len(radices))
	for row := 0; row < rows; row++ {
		tuple := pool[0]
		if row > 0 {
			tuple = pool[r.Intn(len(pool))]
		}
		for c := range cols {
			cols[c] = append(cols[c], tuple[c])
		}
	}
	return codeTable(cols...)
}

// plantedLineitem is lineitem with codes planted above DictSize in the
// return flag and ship mode columns of every seventh row, the way
// exec.plantedTable plants them: they must count as values of their own.
func plantedLineitem(rows int) *table.Table {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: rows, Seed: 1})
	b := table.NewBuilder("planted", rows, tb.NumCols())
	for c := 0; c < tb.NumCols(); c++ {
		b.Copy(tb.Col(c), "")
	}
	for _, c := range []int{datagen.LReturnFlag, datagen.LShipMode} {
		for row := 0; row < rows; row += 7 {
			b.Set(row, c, uint32(tb.Col(c).DictSize()+1+row%3))
		}
	}
	return b.Table()
}

// TestProfileKeyPaths: each key path's profile equals the map-based reference
// and the string-keyed exact counter, at and just past each path's bound, on
// whole-table and drawn samples whose scratch is reused by interleaved sets,
// and with codes planted above DictSize. Every profile leaves the dense count
// array all zero.
func TestProfileKeyPaths(t *testing.T) {
	type pathCase struct {
		path keyPath // on the whole-table sample
		set  colset.Set
	}
	check := func(t *testing.T, tb *table.Table, cases []pathCase) {
		t.Helper()
		whole, drawn := NewSample(tb, tb.NumRows(), 1), NewSample(tb, tb.NumRows()*2/5, 1)
		for _, c := range cases {
			if path, _ := whole.path(c.set); path != c.path {
				t.Fatalf("%s %v: whole-table path %d, want %d", tb.Name(), c.set, path, c.path)
			}
		}
		for range 2 { // the second round reuses every path's scratch
			for _, c := range cases {
				for _, s := range []*Sample{whole, drawn} {
					checkProfile(t, tb, s, c.set)
					if i := slices.IndexFunc(s.counts, func(n int32) bool { return n != 0 }); i >= 0 {
						t.Fatalf("%s %v: counts[%d] = %d after the profile", tb.Name(), c.set, i, s.counts[i])
					}
				}
			}
		}
	}

	// 1 000 rows: the dense bound is 8·n = 8 000.
	wide := radixTable(1000, 1, 100, 80, 7, 1143, 1<<21, 1<<21, 1<<21-1, 1<<21, 1<<32)
	check(t, wide, []pathCase{
		{dense, colset.Of(0, 1)},     // 8 000: at the bound
		{packed, colset.Of(2, 3)},    // 8 001: one above
		{dense, colset.Of(0, 2)},     // 700
		{packed, colset.Of(4, 5, 6)}, // 2⁶³ − 2⁴²
		{mixed, colset.Of(4, 5, 7)},  // 2⁶³
		{packed, colset.Of(8, 4)},    // 2⁵³
		{mixed, colset.Of(8, 4, 5)},  // 2⁷⁴: the product overflows 64 bits
		{dense, colset.Of(0)},
	})
	// 300 rows: 8·n is below the 4 096 floor.
	check(t, radixTable(300, 2, 64, 64, 17, 241), []pathCase{
		{dense, colset.Of(0, 1)},  // 4 096
		{packed, colset.Of(2, 3)}, // 4 097
	})
	// The product overflows at column 1, before the set's last column: the
	// sample must still gather column 2 for the mixed path to key it.
	check(t, radixTable(300, 3, 1<<32, 1<<32, 2), []pathCase{
		{mixed, colset.Of(0, 1, 2)}, // 2⁶⁵
	})
	// The count array follows the key spaces profiled, not the bound.
	s := NewSample(wide, wide.NumRows(), 1)
	for _, step := range []struct {
		set  colset.Set
		size int
	}{{colset.Of(2), table.DenseBound(0)}, {colset.Of(0, 2), table.DenseBound(0)}, {colset.Of(0, 1), 8000}} {
		s.ProfileOf(step.set)
		if len(s.counts) != step.size {
			t.Fatalf("after %v: %d counts, want %d", step.set, len(s.counts), step.size)
		}
	}
	planted := plantedLineitem(3000)
	check(t, planted, []pathCase{
		{dense, colset.Of(datagen.LReturnFlag, datagen.LShipMode)},
		{dense, colset.Of(datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipDate)},
		{packed, colset.Of(datagen.LShipMode, datagen.LPartKey, datagen.LSuppKey)},
		{mixed, colset.Of(datagen.LReturnFlag, datagen.LShipMode, datagen.LOrderKey, datagen.LPartKey, datagen.LSuppKey,
			datagen.LExtendedPrice, datagen.LShipDate, datagen.LCommitDate, datagen.LReceiptDate, datagen.LComment)},
	})
	if got, dict := ExactNDV(planted, colset.Of(datagen.LShipMode)), planted.Col(datagen.LShipMode).DictSize(); got != dict+3 {
		t.Fatalf("planted ship mode: ExactNDV = %d, want the %d dictionary values and 3 planted codes", got, dict)
	}
}

// TestNDVDeterminedSkipsProfile: a set whose sandwich bounds meet (any set
// holding the all-distinct l_comment) is answered from them, drawing and
// profiling nothing, and equals the reference value; a census still profiles
// and returns the exact count.
func TestNDVDeterminedSkipsProfile(t *testing.T) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 30_000, Seed: 1})
	decided := []colset.Set{
		colset.Of(datagen.LComment, datagen.LShipMode),
		colset.Of(datagen.LComment, datagen.LPartKey, datagen.LReturnFlag),
	}
	undecided := colset.Of(datagen.LShipMode, datagen.LReturnFlag)
	for _, e := range []Estimator{GEE, Shlosser, Chao} {
		svc := NewService(e, 10_000, 1)
		rows := NewSample(tb, 10_000, 1).rows
		for i, set := range append(decided[:1:1], undecided, decided[1]) {
			before := svc.Accounting()
			if got, want := svc.NDV(tb, set), refNDV(tb, rows, set, e); got != want {
				t.Fatalf("%v %v: NDV = %v, want %v", e, set, got, want)
			}
			acct := svc.Accounting()
			if set == undecided {
				if acct.RowsProfiled-before.RowsProfiled != 10_000 {
					t.Fatalf("%v %v: profiled %d rows, want 10 000", e, set, acct.RowsProfiled-before.RowsProfiled)
				}
				continue
			}
			if acct.RowsProfiled != before.RowsProfiled {
				t.Fatalf("%v %v: a decided set profiled %d rows", e, set, acct.RowsProfiled-before.RowsProfiled)
			}
			if i == 0 && acct.SamplesDrawn != 0 {
				t.Fatalf("%v %v: the first statistic is decided, yet %d samples were drawn", e, set, acct.SamplesDrawn)
			}
		}
		census := NewService(e, tb.NumRows(), 1)
		for _, set := range decided {
			before := census.Accounting().RowsProfiled
			if got, want := census.NDV(tb, set), float64(ExactNDV(tb, set)); got != want {
				t.Fatalf("%v census %v: NDV = %v, want %v", e, set, got, want)
			}
			if got := census.Accounting().RowsProfiled - before; got != int64(tb.NumRows()) {
				t.Fatalf("%v census %v: profiled %d rows, want %d", e, set, got, tb.NumRows())
			}
		}
	}
}

// TestServiceNDVConcurrent: the sample's scratch table is shared state under
// Service.mu, so goroutines profiling overlapping sets on one service must
// get exactly the sequential answers (run with -race).
func TestServiceNDVConcurrent(t *testing.T) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 20_000, Seed: 1})
	sets := randomSets(rand.New(rand.NewSource(21)), tb.NumCols(), 60)
	seq := NewService(GEE, 4000, 1)
	want := make([]float64, len(sets))
	for i, set := range sets {
		want[i] = seq.NDV(tb, set)
	}
	svc := NewService(GEE, 4000, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sets {
				i := (k*7 + g*11) % len(sets) // each goroutine its own order
				if got := svc.NDV(tb, sets[i]); got != want[i] {
					t.Errorf("goroutine %d %v: NDV = %v, want %v", g, sets[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

var (
	profileSink Profile
	ndvSink     float64
)

// BenchmarkProfileOf is the §6.7 statistics-creation unit cost per key path:
// one profile of a 10 000-row sample of 100 000-row lineitem, columns already
// gathered. decided is what a set whose sandwich bounds meet costs instead
// (l_comment × l_shipmode): the bounds, and no profile.
func BenchmarkProfileOf(b *testing.B) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 1})
	s := NewSample(tb, 10_000, 1)
	for _, ps := range pathSets {
		if path, _ := s.path(ps.set); path != ps.path {
			b.Fatalf("%s set %v takes path %d", ps.name, ps.set, path)
		}
		b.Run(ps.name, func(b *testing.B) {
			b.ReportAllocs()
			s.ProfileOf(ps.set)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				profileSink = s.ProfileOf(ps.set)
			}
		})
	}
	b.Run("decided", func(b *testing.B) {
		b.ReportAllocs()
		svc := NewService(GEE, 10_000, 1)
		set := colset.Of(datagen.LComment, datagen.LShipMode)
		l := &ledger{head: tb, stats: map[colset.Set]stat{}}
		svc.build(l, tb, set)
		if svc.Accounting().RowsProfiled != 0 {
			b.Fatal("the decided set was profiled")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ndvSink = svc.build(l, tb, set).v
		}
	})
}
