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
	codes := make([][]uint32, len(cols))
	for i, c := range cols {
		codes[i] = t.Col(c).Codes()
	}
	counts := make(map[uint64]int32, len(rows))
	for _, row := range rows {
		h := uint64(0x9e3779b97f4a7c15)
		for _, col := range codes {
			h ^= uint64(col[row]) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
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

func checkProfile(t *testing.T, tb *table.Table, s *Sample, set colset.Set) {
	t.Helper()
	wantD, wantFreq := refProfile(tb, sampledRows(s), set)
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
	tb := uniformTable(4000, 300, 3)
	s := NewSample(tb, 1000, 1)
	s.ProfileOf(colset.Of(0)) // leaves slots stamped 1
	s.gen = ^uint32(0)
	checkProfile(t, tb, s, colset.Of(0, 1)) // wraps
	checkProfile(t, tb, s, colset.Of(0))
}

// refNDV is Service.estimate's arithmetic over the reference profile.
func refNDV(tb *table.Table, rows []int32, set colset.Set, e Estimator) float64 {
	if set.Len() == 1 {
		return float64(tb.Col(set.Min()).DictSize())
	}
	d, freq := refProfile(tb, rows, set)
	p := Profile{N: tb.NumRows(), n: len(rows), d: d, Freq: asSlice(freq)}
	if p.n >= p.N {
		return float64(d)
	}
	lo, hi := 1.0, 1.0
	set.ForEach(func(c int) {
		single := float64(tb.Col(c).DictSize())
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
			for _, size := range []int{5000, 10_000} {
				svc := NewService(e, size, 1)
				for _, set := range sets {
					want := float64(ExactNDV(tb, set))
					if set.Len() == 1 && e != Exact {
						want = float64(tb.Col(set.Min()).DictSize())
					}
					if got := svc.NDV(tb, set); got != want {
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
		for _, set := range randomSets(r, tb.NumCols(), 15) {
			seen := make(map[string]struct{})
			var key []byte
			for row := 0; row < tb.NumRows(); row++ {
				key = key[:0]
				for _, c := range set.Columns() {
					key = binary.LittleEndian.AppendUint32(key, tb.Col(c).Code(row))
				}
				seen[string(key)] = struct{}{}
			}
			if got := ExactNDV(tb, set); got != len(seen) {
				t.Fatalf("%s %v: ExactNDV = %d, want %d", tb.Name(), set, got, len(seen))
			}
			if got := NewService(Exact, 0, 1).NDV(tb, set); got != float64(len(seen)) {
				t.Fatalf("%s %v: Exact service NDV = %v, want %d", tb.Name(), set, got, len(seen))
			}
		}
	}
}

// TestProfileSteadyStateAllocs: once a set's columns are gathered, a profile
// allocates nothing.
func TestProfileSteadyStateAllocs(t *testing.T) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 30_000, Seed: 1})
	s := NewSample(tb, 10_000, 1)
	set := colset.Of(datagen.LShipDate, datagen.LReturnFlag, datagen.LShipMode, datagen.LQuantity)
	s.ProfileOf(set)
	if allocs := testing.AllocsPerRun(20, func() { s.ProfileOf(set) }); allocs != 0 {
		t.Fatalf("steady-state ProfileOf allocates %v times per call", allocs)
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

var profileSink Profile

// BenchmarkProfileOf is the §6.7 statistics-creation unit cost: one profile
// of a 10 000-row sample of 100 000-row lineitem, columns already gathered.
func BenchmarkProfileOf(b *testing.B) {
	tb := datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 1})
	s := NewSample(tb, 10_000, 1)
	for _, set := range []colset.Set{
		colset.Of(datagen.LPartKey),
		colset.Of(datagen.LShipDate, datagen.LReturnFlag),
		colset.Of(datagen.LShipDate, datagen.LCommitDate, datagen.LReturnFlag, datagen.LShipMode),
		colset.Of(datagen.LQuantity, datagen.LReturnFlag, datagen.LLineStatus, datagen.LShipInstruct, datagen.LShipMode, datagen.LSuppKey),
	} {
		b.Run(fmt.Sprintf("cols=%d", set.Len()), func(b *testing.B) {
			b.ReportAllocs()
			s.ProfileOf(set)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				profileSink = s.ProfileOf(set)
			}
		})
	}
}
