package stats

import (
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/table"
)

// Sample is a uniform random sample of row ordinals from one table. One
// sample per table is drawn once and reused to build statistics on any column
// set — the amortization the paper notes ("the optimizer can create multiple
// statistics from one sample").
//
// It is held as a sample image: the first profile touching a column gathers
// that column's sampled codes into a contiguous sample-local array, and every
// profile counts into scratch owned by the sample, so a profile neither
// allocates nor reads the base table again. The scratch makes ProfileOf a
// mutation: callers serialize (Service.mu).
type Sample struct {
	t    *table.Table
	n    int
	rows []int32    // sampled ordinals; nil when the sample is the whole table
	img  [][]uint32 // per column: codes at the sampled rows, nil until touched
	top  []uint32   // per column: the largest code in img[c], set with it

	keys    [keyBlock]uint64 // keys of the block being counted
	counts  []int32          // dense path: count per key, all zero between profiles
	touched []uint64         // dense path: the profile's keys in first-touch order
	slots   []slot           // hashed paths: open addressing, power-of-two size > 2n, linear probing
	gen     uint32           // current profile's stamp: a slot is occupied iff it carries it
	freq    []int            // backs Profile.Freq; only the last profile's prefix is dirty
	dirty   int              // length of that prefix
}

// slot is one counting-table entry. Stamping it with the profile's generation
// stands in for clearing the table between profiles.
type slot struct {
	key   uint64
	count int32
	gen   uint32
}

// keyBlock is how many sampled rows are keyed column-by-column before they
// are counted: 8 KB of running keys, L1-resident.
const keyBlock = 1024

// keyPath is how a profile turns a row's codes into the key it counts.
type keyPath int

const (
	// dense: the mixed-radix number of the codes indexes a count array.
	dense keyPath = iota
	// packed: that number, exact in 64 bits, is the stamped table's key.
	packed
	// mixed: a 64-bit mix of the codes is the key (collisions possible).
	mixed
)

// NewSample draws a uniform sample of up to size rows, deterministically from
// seed. If the table has at most size rows the sample is the whole table.
func NewSample(t *table.Table, size int, seed int64) *Sample {
	n := t.NumRows()
	s := &Sample{t: t, n: n, img: make([][]uint32, t.NumCols()), top: make([]uint32, t.NumCols())}
	if size < n {
		// Reservoir sampling keeps the draw uniform without materializing a
		// full permutation.
		r := rand.New(rand.NewSource(seed))
		rows := make([]int32, size)
		for i := 0; i < size; i++ {
			rows[i] = int32(i)
		}
		for i := size; i < n; i++ {
			if j := r.Intn(i + 1); j < size {
				rows[j] = int32(i)
			}
		}
		s.rows, s.n = rows, size
	}
	s.freq = make([]int, s.n+1)
	return s
}

// Size returns the number of sampled rows.
func (s *Sample) Size() int { return s.n }

// column returns column c of the sample image, gathering it on first use
// and recording its largest code as the column's radix. A whole-table sample
// aliases the column itself.
func (s *Sample) column(c int) []uint32 {
	if s.img[c] == nil {
		codes := s.t.Col(c).Codes()
		if s.rows != nil {
			gathered := make([]uint32, len(s.rows))
			for i, row := range s.rows {
				gathered[i] = codes[row]
			}
			codes = gathered
		}
		top := uint32(0)
		for _, code := range codes {
			top = max(top, code)
		}
		s.img[c], s.top[c] = codes, top
	}
	return s.img[c]
}

// The dense path counts any key space up to table.DenseBound of the sampled
// rows, the bound at which exec admits its dense key mode. Exec also caps its
// domain at 2²⁰ (denseMaxDomain), because it allocates a group-id array per
// worker against the query's memory budget. Statistics keep one count array
// per sample, sized to the largest dense key space profiled, so they take no
// cap: at 8·n entries the array and its first-touch list cost 40 B per
// sampled row, and the packed path a cap would send the set to allocates a
// slot table of more than 2n 16-byte slots instead, no smaller.
func (s *Sample) denseBound() int { return table.DenseBound(s.n) }

// path picks the set's key path from its key space Π(top[c]+1), the number
// of mixed-radix keys its sampled tuples can take, and returns that space
// when it fits in 63 bits. The radices come from the sampled codes
// themselves, so every key is exact whatever the dictionary says. Every
// column of the set is gathered, whichever path it picks.
func (s *Sample) path(set colset.Set) (keyPath, uint64) {
	space, wide := uint64(1), false
	for v := uint64(set); v != 0; v &= v - 1 {
		c := bits.TrailingZeros64(v)
		s.column(c)
		hi, lo := bits.Mul64(space, uint64(s.top[c])+1)
		wide = wide || hi != 0 || lo >= 1<<63
		space = lo
	}
	switch {
	case wide:
		return mixed, 0
	case space <= uint64(s.denseBound()):
		return dense, space
	}
	return packed, space
}

// ProfileOf counts the frequency profile of column-set combinations within
// the sample. Profiling cost is exactly the §6.7 statistics-creation
// overhead, so the kernel is kept flat: a block of rows is keyed one image
// column at a time, then counted. The key is the mixed-radix number of the
// row's codes: it indexes a count array when the key space is small (dense)
// and is the stamped table's key otherwise (packed). Only a key space of 2⁶³
// or more falls back to a 64-bit mix of the codes (mixed), whose ~2⁻⁶⁴
// per-pair collision probability is negligible against sampling error.
// Nothing is allocated once the set's columns are gathered and the path's
// scratch exists. The returned Profile's Freq aliases scratch and is valid
// until the next call.
func (s *Sample) ProfileOf(set colset.Set) Profile {
	clear(s.freq[:s.dirty])
	var d int
	top := int32(min(s.n, 1)) // the largest count any key reached
	if path, space := s.path(set); path == dense {
		d, top = s.countDense(set, int(space), top)
	} else {
		d, top = s.countHashed(set, path == packed, top)
	}
	s.dirty = int(top) + 1
	return Profile{N: s.t.NumRows(), n: s.n, d: d, Freq: s.freq[:s.dirty]}
}

// keysOf writes into keys the keys of sampled rows [lo, lo+len(keys)): their
// mixed-radix numbers when exact, else a 64-bit mix of their codes.
func (s *Sample) keysOf(set colset.Set, lo int, keys []uint64, exact bool) {
	if !exact {
		for i := range keys {
			keys[i] = 0x9e3779b97f4a7c15
		}
	} else if set.IsEmpty() {
		clear(keys) // the empty tuple's key is 0
	}
	for v := uint64(set); v != 0; v &= v - 1 {
		c := bits.TrailingZeros64(v)
		col := s.img[c][lo : lo+len(keys)]
		switch radix := uint64(s.top[c]) + 1; {
		case !exact:
			for i, code := range col {
				x := keys[i]
				x ^= uint64(code) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
				x *= 0xbf58476d1ce4e5b9
				keys[i] = x ^ x>>27
			}
		case v == uint64(set): // the leading digit
			for i, code := range col {
				keys[i] = uint64(code)
			}
		default:
			for i, code := range col {
				keys[i] = keys[i]*radix + uint64(code)
			}
		}
	}
}

// countDense counts keys in the count array, then builds d and the
// frequencies of frequencies from the keys it touched, zeroing only those.
// The array grows, at least doubling, to the set's key space, so it follows
// the key spaces profiled up to the bound; the first-touch list holds the
// at most min(n, space) distinct keys.
func (s *Sample) countDense(set colset.Set, space int, top int32) (int, int32) {
	if len(s.counts) < space {
		size := min(s.denseBound(), max(space, 2*len(s.counts), table.DenseBound(0)))
		s.counts = make([]int32, size)
		s.touched = make([]uint64, min(s.n, size))
	}
	counts, touched, d := s.counts, s.touched, 0
	for lo := 0; lo < s.n; lo += keyBlock {
		keys := s.keys[:min(keyBlock, s.n-lo)]
		s.keysOf(set, lo, keys, true)
		for _, k := range keys {
			// Every key is written, and d moves past it only on its first
			// touch: a conditional move, not a branch to mispredict.
			c := counts[k]
			touched[d] = k
			if c == 0 {
				d++
			}
			counts[k] = c + 1
		}
	}
	for _, k := range touched[:d] {
		c := counts[k]
		counts[k] = 0
		s.freq[c]++
		top = max(top, c)
	}
	return d, top
}

// countHashed counts keys in the stamped open-addressing table, maintaining
// the frequencies of frequencies as counts move.
func (s *Sample) countHashed(set colset.Set, exact bool, top int32) (int, int32) {
	if s.slots == nil {
		s.slots = make([]slot, 1<<bits.Len(uint(2*s.n))) // more than 2n: load stays below 1/2
	}
	if s.gen++; s.gen == 0 { // stamp wrapped: stale slots could look current
		clear(s.slots)
		s.gen = 1
	}
	freq, gen, slots, mask := s.freq, s.gen, s.slots, len(s.slots)-1
	shift := uint(64 - bits.TrailingZeros(uint(len(slots)))) // index by the top log2(len) bits
	d := 0
	for lo := 0; lo < s.n; lo += keyBlock {
		keys := s.keys[:min(keyBlock, s.n-lo)]
		s.keysOf(set, lo, keys, exact)
		for _, key := range keys {
			for i := int(key * 0x9e3779b97f4a7c15 >> shift); ; i = (i + 1) & mask {
				sl := &slots[i]
				if sl.gen != gen {
					*sl = slot{key: key, count: 1, gen: gen}
					d++
					freq[1]++
					break
				}
				if sl.key == key {
					freq[sl.count]--
					sl.count++
					freq[sl.count]++
					top = max(top, sl.count)
					break
				}
			}
		}
	}
	return d, top
}

// ExactNDV counts the exact number of distinct column-set combinations in the
// full table: the profiling kernel run over the whole-table sample. O(rows);
// used by the Exact estimator, tests, and calibration.
func ExactNDV(t *table.Table, set colset.Set) int {
	return NewSample(t, t.NumRows(), 0).ProfileOf(set).Distinct()
}

// Accounting records the cost of statistics creation, the quantity §6.7
// reports as a fraction of execution-time savings.
type Accounting struct {
	// StatsCreated is the number of distinct column-set statistics built.
	StatsCreated int
	// SamplesDrawn is the number of table samples drawn.
	SamplesDrawn int
	// RowsProfiled is the number of rows the profiling kernel read: the
	// sample size per sampled profile, the table size per exact one.
	// Single-column statistics come off the dictionary and read none.
	RowsProfiled int64
	// CreateTime is total wall time spent drawing samples and profiling.
	CreateTime time.Duration
}

// Service builds and caches column-set statistics over registered tables. A
// statistic for a column set is created on demand the first time the cost
// model asks for it ("the algorithm created a statistics on the grouping
// columns of a Group By query if it encountered that Group By for the first
// time", §6.7) and reused afterwards.
type Service struct {
	estimator  Estimator
	sampleSize int
	seed       int64

	// mu guards the memoization maps and the accounting: one service is
	// shared by every concurrent query (the result-cache path costs lattice
	// ancestors from multiple goroutines at once), so creation and lookup
	// must be serialized. Statistics creation is one-time per column set, so
	// holding the lock across a profile build does not serialize steady-state
	// costing.
	mu      sync.Mutex
	samples map[string]*Sample
	ndv     map[string]map[colset.Set]float64
	// built records which table snapshot each cached entry was computed over.
	// Statistics are memoized by table *name*, but a name can be rebound to a
	// new snapshot (replace, or an append producing a new *Table): comparing
	// pointers on every lookup self-heals the cache, so stale NDVs for dead
	// snapshots can never accumulate or be served.
	built map[string]*table.Table
	acct  Accounting
}

// NewService creates a statistics service. sampleSize <= 0 selects a default
// of 10 000 rows.
func NewService(e Estimator, sampleSize int, seed int64) *Service {
	if sampleSize <= 0 {
		sampleSize = 10_000
	}
	return &Service{
		estimator:  e,
		sampleSize: sampleSize,
		seed:       seed,
		samples:    make(map[string]*Sample),
		ndv:        make(map[string]map[colset.Set]float64),
		built:      make(map[string]*table.Table),
	}
}

// syncLocked wipes cached statistics built over a different snapshot of t's
// name. Callers hold s.mu.
func (s *Service) syncLocked(t *table.Table) {
	if prev, ok := s.built[t.Name()]; ok && prev == t {
		return
	}
	delete(s.samples, t.Name())
	delete(s.ndv, t.Name())
	s.built[t.Name()] = t
}

// Estimator returns the configured estimation method.
func (s *Service) Estimator() Estimator { return s.estimator }

// NDV returns the estimated number of distinct combinations of the column set
// over the table, creating (and caching) the statistic on first use. An empty
// set has NDV 1 (the single global group).
//
// Single columns are answered exactly from the column dictionary — the
// full-scan statistics every commercial DBMS maintains per column — with
// NULL counted as one group. Sampled multi-column estimates are clamped to
// the sandwich every optimizer applies: at least the largest member column's
// NDV, at most the product of member NDVs (and never above the row count).
// Without the lower bound, sampling estimators can under-estimate a
// near-unique combination several-fold and trick the optimizer into
// materializing an intermediate nearly as large as the base table. A set
// whose bounds meet is answered from them without profiling.
func (s *Service) NDV(t *table.Table, set colset.Set) float64 {
	if set.IsEmpty() {
		return 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked(t)
	byTable, ok := s.ndv[t.Name()]
	if !ok {
		byTable = make(map[colset.Set]float64)
		s.ndv[t.Name()] = byTable
	}
	if v, ok := byTable[set]; ok {
		return v
	}
	start := time.Now()
	est := s.estimate(t, set, byTable)
	s.acct.StatsCreated++
	s.acct.CreateTime += time.Since(start)
	byTable[set] = est
	return est
}

// CachedNDV is the non-creating lookup NDV: it answers from already-built
// statistics and never profiles. Execution-time consumers (the adaptive
// kernel chooser) use it so a statistic the optimizer did not need is not
// built mid-query. An empty set answers 1; a single column answers exactly
// from the dictionary (free — no sample involved); anything else misses with
// (0, false) unless the optimizer already built it.
func (s *Service) CachedNDV(t *table.Table, set colset.Set) (float64, bool) {
	if set.IsEmpty() {
		return 1, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if byTable, ok := s.ndv[t.Name()]; ok && s.built[t.Name()] == t {
		if v, ok := byTable[set]; ok {
			return v, true
		}
	}
	if set.Len() == 1 {
		return columnNDV(t, set.Min()), true
	}
	return 0, false
}

// columnNDV is column c's exact distinct count off its dictionary, counting
// NULL as one value when the column holds one, as Group By does.
func columnNDV(t *table.Table, c int) float64 {
	col := t.Col(c)
	if col.HasNull() {
		return float64(col.DictSize() + 1)
	}
	return float64(col.DictSize())
}

func (s *Service) estimate(t *table.Table, set colset.Set, byTable map[colset.Set]float64) float64 {
	if s.estimator == Exact {
		s.acct.RowsProfiled += int64(t.NumRows())
		return float64(ExactNDV(t, set))
	}
	if set.Len() == 1 {
		return columnNDV(t, set.Min())
	}
	// A sample that is the whole table is a census: the observed count is the
	// truth, and a saturated profile must not be extrapolated past it.
	census := s.sampleSize >= t.NumRows()
	lo, hi := 1.0, 1.0
	if !census {
		set.ForEach(func(c int) {
			single, cached := byTable[colset.Of(c)]
			if !cached {
				single = columnNDV(t, c)
				byTable[colset.Of(c)] = single
			}
			lo = max(lo, single)
			hi *= single
		})
		hi = min(hi, float64(t.NumRows()))
		if lo == hi {
			// clamp returns lo whatever the profile says: skip drawing it.
			return lo
		}
	}
	sample, ok := s.samples[t.Name()]
	if !ok {
		sample = NewSample(t, s.sampleSize, s.seed)
		s.samples[t.Name()] = sample
		s.acct.SamplesDrawn++
	}
	profile := sample.ProfileOf(set)
	s.acct.RowsProfiled += int64(profile.SampleSize())
	if census {
		return float64(profile.Distinct())
	}

	var est float64
	if float64(profile.Distinct()) > saturationFraction*float64(profile.SampleSize()) {
		// The sample is saturated (most sampled rows are distinct
		// combinations): f1-based extrapolation is unreliable by sqrt(N/n)
		// here, but the *collision count* still identifies the scale — under
		// uniform draws the expected number of colliding rows is
		// n(n-1)/(2D), so D̂ = n(n-1)/(2c) (birthday estimator). Zero
		// collisions are indistinguishable from all-distinct, giving D̂ = N.
		est = birthdayEstimate(profile, float64(t.NumRows()))
	} else {
		est = profile.Estimate(s.estimator)
	}
	return clamp(est, lo, hi)
}

// saturationFraction is the observed-distinct to sample-size ratio above
// which f1-extrapolation is abandoned for the collision-based estimate.
const saturationFraction = 0.5

// birthdayEstimate inverts the birthday bound: with n sampled rows showing d
// distinct combinations, c = n − d rows collided, and E[c] ≈ n(n−1)/(2D).
func birthdayEstimate(p Profile, rows float64) float64 {
	n := float64(p.SampleSize())
	c := n - float64(p.Distinct())
	if c <= 0 {
		return rows
	}
	return n * (n - 1) / (2 * c)
}

// Accounting returns a copy of the creation-cost counters.
func (s *Service) Accounting() Accounting {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acct
}

// ResetAccounting zeroes the counters (cached statistics are kept).
func (s *Service) ResetAccounting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acct = Accounting{}
}

// Invalidate drops cached statistics and the sample for a table (used when a
// table is regenerated between experiment steps).
func (s *Service) Invalidate(tableName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.samples, tableName)
	delete(s.ndv, tableName)
	delete(s.built, tableName)
}

// DropStale drops cached statistics for a table unless they were built over
// the given current snapshot. The engine calls it when the result cache sweeps
// stale versions (cache.InvalidateBelow), so NDVs for dead versions are
// reclaimed in step with the cached results derived from them rather than
// accumulating until the next on-demand lookup.
func (s *Service) DropStale(tableName string, current *table.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.built[tableName]; ok && prev == current {
		return
	}
	delete(s.samples, tableName)
	delete(s.ndv, tableName)
	delete(s.built, tableName)
}

// Retained reports how many tables currently have cached statistics (tests
// use it to assert the churn leak stays bounded).
func (s *Service) Retained() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ndv)
}
