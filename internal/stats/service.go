package stats

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/table"
)

// Sample is a uniform random sample of row ordinals from one table. One
// sample per table lineage is drawn and reused to build statistics on any
// column set — the amortization the paper notes ("the optimizer can create
// multiple statistics from one sample") — and an append brings it forward
// instead of drawing it again (see extend).
//
// It is held as a sample image: the first profile touching a column gathers
// that column's sampled codes into a contiguous sample-local array, and every
// profile counts into scratch owned by the sample, so a profile neither
// allocates nor reads the base table again. The scratch makes ProfileOf a
// mutation: callers serialize (Service.mu).
type Sample struct {
	t     *table.Table // reads the sampled rows' codes: the sampled snapshot or a later one of its lineage
	total int          // rows the sample was drawn from, a prefix of t's
	n     int
	rows  []int32    // sampled ordinals; nil when the sample is the whole table
	rng   *rand.Rand // the reservoir's generator, where the draw over total rows left it
	img   [][]uint32 // per column: codes at the sampled rows, nil until touched
	top   []uint32   // per column: the largest code in img[c], set with it

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
	s := &Sample{t: t, total: n, n: n, img: make([][]uint32, t.NumCols()), top: make([]uint32, t.NumCols())}
	if size < n {
		// Reservoir sampling keeps the draw uniform without materializing a
		// full permutation.
		s.rows, s.n = make([]int32, size), size
		for i := range s.rows {
			s.rows[i] = int32(i)
		}
		s.total, s.rng = size, rand.New(rand.NewSource(seed))
		s.draw(n)
	}
	s.freq = make([]int, s.n+1)
	return s
}

// draw continues the reservoir over rows [total, n).
func (s *Sample) draw(n int) {
	rows := s.rows
	for i := s.total; i < n; i++ {
		if j := s.rng.Intn(i + 1); j < len(rows) {
			rows[j] = int32(i)
		}
	}
	s.total = n
}

// extend brings a reservoir sample forward to every row of t, a later
// snapshot of the sampled table's append lineage: the reservoir continues
// over the appended rows only, from the generator state the earlier draw
// left, so it costs O(rows appended) draws and yields exactly the sample
// NewSample would draw over t with the same seed. Gathered columns are
// patched at the slots whose row changed and their radices recomputed.
func (s *Sample) extend(t *table.Table) {
	before := slices.Clone(s.rows)
	s.draw(t.NumRows())
	s.t = t
	for c, col := range s.img {
		if col == nil {
			continue
		}
		codes := t.Col(c).View()
		for j, row := range s.rows {
			if row != before[j] {
				col[j] = codes.At(int(row))
			}
		}
		s.top[c] = maxCode(col)
	}
}

// Size returns the number of sampled rows.
func (s *Sample) Size() int { return s.n }

// column returns column c of the sample image, gathering it on first use
// and recording its largest code as the column's radix. A whole-table sample
// gathers every row.
func (s *Sample) column(c int) []uint32 {
	if s.img[c] == nil {
		codes := s.t.Col(c).View()
		var gathered []uint32
		if s.rows == nil {
			gathered = codes.Gather()
		} else {
			gathered = make([]uint32, len(s.rows))
			for i, row := range s.rows {
				gathered[i] = codes.At(int(row))
			}
		}
		s.img[c], s.top[c] = gathered, maxCode(gathered)
	}
	return s.img[c]
}

// maxCode returns the largest code in codes, 0 when there are none.
func maxCode(codes []uint32) uint32 {
	top := uint32(0)
	for _, code := range codes {
		top = max(top, code)
	}
	return top
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
	return Profile{N: s.total, n: s.n, d: d, Freq: s.freq[:s.dirty]}
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

// Service builds and keeps column-set statistics over registered tables. A
// statistic for a column set is created on demand the first time the cost
// model asks for it ("the algorithm created a statistics on the grouping
// columns of a Group By query if it encountered that Group By for the first
// time", §6.7) and reused afterwards, across appends too.
//
// Statistics live in one ledger per table name, which follows the table's
// append lineage rather than one snapshot of it. On an append-only table the
// distinct count of a column set only grows, and by at most the rows
// appended, so a count v taken at R rows bounds the count at R+Δ rows to
// [v, v+Δ]: an append leaves every statistic in place, and each is served
// clamped to what the append can have changed (see serve). Once the rows
// appended since the sample was drawn pass staleFraction of it, the sample is
// brought forward over the new rows (Sample.extend), and a statistic built
// more than that many rows ago is profiled again from it on its next use.
type Service struct {
	estimator  Estimator
	sampleSize int
	seed       int64

	// mu guards the ledgers and the accounting: one service is shared by
	// every concurrent query (the result-cache path costs lattice ancestors
	// from multiple goroutines at once), so creation and lookup must be
	// serialized. Statistics creation is one-time per column set, so holding
	// the lock across a profile build does not serialize steady-state
	// costing.
	mu      sync.Mutex
	ledgers map[string]*ledger
	acct    Accounting

	// advMu guards advanced: the appends Advance recorded that no lookup has
	// brought its ledger forward over yet. It is never held across a profile,
	// so publishing an append (Advance runs under the catalog's lock) never
	// waits on statistics creation. Lock order: mu, then advMu.
	advMu    sync.Mutex
	advanced map[string]*advance
}

// ledger holds the statistics of one table lineage.
type ledger struct {
	head   *table.Table        // the lineage's newest snapshot the ledger knows
	past   []uint64            // serials of older snapshots of the lineage, oldest first
	sample *Sample             // nil until a profile needs one
	stats  map[colset.Set]stat // built statistics by column set
}

// stat is one built statistic: its value, and the row count of the snapshot
// it describes.
type stat struct {
	v    float64
	rows int
	// exact marks a count over every row (the Exact estimator, or a census
	// sample): it holds at its own row count only, and is counted again at
	// any other.
	exact bool
}

// advance is what Advance recorded for one table: the serial of the snapshot
// the first append left, the serials of every snapshot that has left the
// head since, and the head now.
type advance struct {
	from uint64
	past []uint64
	head *table.Table
}

const (
	// staleFraction is how far a lineage may grow past the rows its sample,
	// or a statistic, was taken at, as a fraction of those rows, before the
	// sample is brought forward and the statistic profiled again.
	staleFraction = 0.1
	// pastLimit bounds how many older snapshots a ledger remembers; a reader
	// holding one further behind is served as a foreign table.
	pastLimit = 1024
)

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
		ledgers:    make(map[string]*ledger),
		advanced:   make(map[string]*advance),
	}
}

// Advance records that to, an append-only snapshot of from, has replaced it
// as the table's snapshot. Nothing is dropped: the table's ledger follows the
// lineage to to on its next lookup. The catalog calls it as it publishes an
// append; it takes only advMu, so it never waits on a profile.
func (s *Service) Advance(from, to *table.Table) {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	a := s.advanced[to.Name()]
	if a == nil || a.head != from {
		a = &advance{from: from.Serial()}
		s.advanced[to.Name()] = a
	}
	a.past = remember(a.past, from.Serial())
	a.head = to
}

// remember appends serials to past, forgetting the oldest beyond pastLimit.
func remember(past []uint64, serials ...uint64) []uint64 {
	past = append(past, serials...)
	if len(past) > pastLimit {
		past = append([]uint64(nil), past[len(past)-pastLimit/2:]...)
	}
	return past
}

// ledgerLocked returns t's ledger, brought forward over any append recorded
// since its last lookup, and whether t is the ledger's head. A t that is
// neither the head nor an older snapshot of the head's lineage is foreign:
// with create the ledger is rebuilt over it, as for a table never seen;
// without, nil is returned. Callers hold s.mu.
func (s *Service) ledgerLocked(t *table.Table, create bool) (*ledger, bool) {
	name := t.Name()
	l := s.ledgers[name]
	s.advMu.Lock()
	a := s.advanced[name]
	delete(s.advanced, name)
	s.advMu.Unlock()
	if a != nil {
		l = l.follow(a)
		s.ledgers[name] = l
	}
	switch {
	case l != nil && l.head == t:
		return l, true
	case l != nil && slices.Contains(l.past, t.Serial()):
		return l, false
	case !create:
		return nil, false
	}
	l = &ledger{head: t, stats: make(map[colset.Set]stat)}
	s.ledgers[name] = l
	return l, true
}

// follow brings the ledger forward over recorded appends. Statistics stay;
// a census sample goes, since it holds at its own rows only, and a reservoir
// reads its sampled rows, a prefix of the new head's, from the head. When
// there is no ledger, or it was not at the snapshot the appends left, an
// empty ledger at the new head takes its place.
func (l *ledger) follow(a *advance) *ledger {
	if l == nil || l.head.Serial() != a.from {
		return &ledger{head: a.head, past: a.past, stats: make(map[colset.Set]stat)}
	}
	l.head, l.past = a.head, remember(l.past, a.past...)
	switch {
	case l.sample == nil:
	case l.sample.rows == nil:
		l.sample = nil
	default:
		l.sample.t = a.head
	}
	return l
}

// Estimator returns the configured estimation method.
func (s *Service) Estimator() Estimator { return s.estimator }

// NDV returns the estimated number of distinct combinations of the column set
// over the table, creating (and keeping) the statistic on first use. An empty
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
	l, head := s.ledgerLocked(t, true)
	st, ok := l.stats[set]
	if set.Len() == 1 && s.estimator != Exact {
		if !ok {
			l.stats[set] = stat{v: columnNDV(t, set.Min()), rows: t.NumRows()}
			s.acct.StatsCreated++
		}
		return columnNDV(t, set.Min())
	}
	if ok && servable(st, t, head) {
		return serve(t, set, st)
	}
	start := time.Now()
	st = s.build(l, t, set)
	if head || !st.exact {
		l.stats[set] = st
	}
	s.acct.StatsCreated++
	s.acct.CreateTime += time.Since(start)
	return serve(t, set, st)
}

// servable reports whether st may be served for t without building it again:
// always at its own row count; an exact count nowhere else; an estimate for
// an older snapshot of its lineage, and for the head until the head has grown
// more than staleFraction past the rows it was built at.
func servable(st stat, t *table.Table, head bool) bool {
	switch {
	case st.rows == t.NumRows():
		return true
	case st.exact:
		return false
	}
	return !head || !grown(st.rows, t.NumRows())
}

// grown reports whether n rows are more than staleFraction past rows.
func grown(rows, n int) bool { return float64(n-rows) > staleFraction*float64(rows) }

// serve answers st for t: as built at its own row count, else clamped to
// what the rows between can have changed — at least the largest member
// column's distinct count, at most st.v plus the rows appended since, the
// product of the member columns' counts and t's rows.
func serve(t *table.Table, set colset.Set, st stat) float64 {
	n := t.NumRows()
	if st.rows == n {
		return st.v
	}
	lo, hi := sandwich(t, set)
	return clamp(st.v, lo, min(hi, st.v+float64(max(n-st.rows, 0)), float64(n)))
}

// sandwich returns the bounds on set's distinct count over t that every
// optimizer applies: the largest member column's count, and the product of
// them all.
func sandwich(t *table.Table, set colset.Set) (lo, hi float64) {
	lo, hi = 1, 1
	set.ForEach(func(c int) {
		single := columnNDV(t, c)
		lo = max(lo, single)
		hi *= single
	})
	return lo, hi
}

// CachedNDV is the non-creating lookup NDV: it answers from already-built
// statistics and never profiles. Execution-time consumers (the adaptive
// kernel chooser) use it so a statistic the optimizer did not need is not
// built mid-query. An empty set answers 1; a single column answers exactly
// from the dictionary (free — no sample involved); anything else misses with
// (0, false) unless the optimizer already built it. A built estimate is
// served clamped (see serve) however far the table has grown; an exact count
// only at the row count it was taken at.
func (s *Service) CachedNDV(t *table.Table, set colset.Set) (float64, bool) {
	if set.IsEmpty() {
		return 1, true
	}
	if set.Len() == 1 && s.estimator != Exact {
		return columnNDV(t, set.Min()), true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, _ := s.ledgerLocked(t, false); l != nil {
		if st, ok := l.stats[set]; ok && (st.rows == t.NumRows() || !st.exact) {
			return serve(t, set, st), true
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

// UpperNDV is the sandwich's upper bound on set's distinct count over t,
// read off the dictionaries without a sample: the product of the member
// columns' distinct counts, at most t's rows.
func UpperNDV(t *table.Table, set colset.Set) float64 {
	_, hi := sandwich(t, set)
	return min(hi, float64(t.NumRows()))
}

// build counts or estimates set's statistic over t, a snapshot of l's
// lineage. A sampled estimate describes the rows its sample was drawn from.
func (s *Service) build(l *ledger, t *table.Table, set colset.Set) stat {
	n := t.NumRows()
	if s.estimator == Exact {
		s.acct.RowsProfiled += int64(n)
		return stat{v: float64(ExactNDV(t, set)), rows: n, exact: true}
	}
	// A sample that is the whole table is a census: the observed count is the
	// truth, and a saturated profile must not be extrapolated past it.
	census := s.sampleSize >= n
	lo, hi := 1.0, 1.0
	if !census {
		set.ForEach(func(c int) {
			if _, built := l.stats[colset.Of(c)]; !built {
				l.stats[colset.Of(c)] = stat{v: columnNDV(t, c), rows: n}
			}
		})
		lo, hi = sandwich(t, set)
		hi = min(hi, float64(n))
		if lo == hi {
			// clamp returns lo whatever the profile says: skip drawing it.
			return stat{v: lo, rows: n}
		}
	}
	sample := s.sampleOf(l, t, census)
	profile := sample.ProfileOf(set)
	s.acct.RowsProfiled += int64(profile.SampleSize())
	if census {
		return stat{v: float64(profile.Distinct()), rows: n, exact: true}
	}

	var est float64
	if float64(profile.Distinct()) > saturationFraction*float64(profile.SampleSize()) {
		// The sample is saturated (most sampled rows are distinct
		// combinations): f1-based extrapolation is unreliable by sqrt(N/n)
		// here, but the *collision count* still identifies the scale — under
		// uniform draws the expected number of colliding rows is
		// n(n-1)/(2D), so D̂ = n(n-1)/(2c) (birthday estimator). Zero
		// collisions are indistinguishable from all-distinct, giving D̂ = N.
		est = birthdayEstimate(profile, float64(sample.total))
	} else {
		est = profile.Estimate(s.estimator)
	}
	return stat{v: clamp(est, lo, min(hi, float64(sample.total))), rows: sample.total}
}

// sampleOf returns the sample a profile of t reads: for a census, t itself
// whole; else the ledger's reservoir over the lineage's head, drawn on first
// use and brought forward once the head has grown more than staleFraction
// past it.
func (s *Service) sampleOf(l *ledger, t *table.Table, census bool) *Sample {
	switch {
	case census && t != l.head:
		s.acct.SamplesDrawn++
		return NewSample(t, s.sampleSize, s.seed)
	case l.sample == nil:
		l.sample = NewSample(l.head, s.sampleSize, s.seed)
	case grown(l.sample.total, l.head.NumRows()):
		l.sample.extend(l.head)
	default:
		return l.sample
	}
	s.acct.SamplesDrawn++
	return l.sample
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

// Invalidate drops a table's ledger and any append recorded for it: the
// catalog calls it on Register (a replacement), RestoreAt and Drop.
func (s *Service) Invalidate(tableName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.ledgers, tableName)
	s.advMu.Lock()
	delete(s.advanced, tableName)
	s.advMu.Unlock()
}

// Retained reports how many tables currently have a ledger (tests use it to
// assert that statistics neither leak nor churn across appends).
func (s *Service) Retained() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ledgers)
}
