package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"gbmqo/internal/colset"
	"gbmqo/internal/index"
	"gbmqo/internal/table"
)

// GroupByHash computes SELECT groupCols, aggs FROM t GROUP BY groupCols with
// an open-addressing hash aggregate over dictionary-code tuples. Key codes
// are read through the table's row-major scan image, so the scan pays for the
// table's full width like the row store the paper ran on (see
// table.RowImage). It is the ungoverned convenience form of GroupByHashGov
// (background context, no budget); a malformed request panics, preserving
// the historical contract for tests and tools.
func GroupByHash(t *table.Table, groupCols []int, aggs []Agg, outName string) *table.Table {
	out, err := GroupByHashGov(nil, t, groupCols, aggs, outName)
	if err != nil {
		panic(err)
	}
	return out
}

// GroupByHashGov is the governed hash aggregate: it validates the request,
// polls gov's context every cancelCheckRows rows, and charges its hash-table
// slots plus accumulator state against gov's memory budget for the duration
// of the operator. A nil gov means ungoverned and adds no overhead.
func GroupByHashGov(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string) (*table.Table, error) {
	outs, _, err := groupBy(gov, t, []MultiQuery{{GroupCols: groupCols, Aggs: aggs, OutName: outName}}, 1)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// GroupBySort computes the same result by sorting row ids and streaming over
// runs. It exists for the shared-sort emulation of the commercial GROUPING
// SETS baseline and for operator cross-checking in tests. Output rows are in
// key-sorted order (contrast GroupBySortGov, which restores first-appearance
// order for hash-path interchangeability).
func GroupBySort(t *table.Table, groupCols []int, aggs []Agg, outName string) *table.Table {
	ix := index.Build(t, "tmp_sort", groupCols, false)
	return GroupByIndexStream(t, ix, groupCols, aggs, outName)
}

// GroupBySortGov is the governed sort-based aggregate and the engine's
// low-memory fallback when a hash aggregate would exceed the memory budget
// (sort-based group-by degrades gracefully: its working state is the
// O(rows) permutation, independent of how many groups the key produces,
// where a hash table grows with NDV). Rows are sorted by the full grouping
// key and streamed run by run, then groups are emitted in global
// first-appearance order — the index sort breaks key ties by row id, so each
// run's first row is the group's first occurrence — making the output
// byte-identical to GroupByHashGov for order-insensitive aggregates
// (SUM/AVG over TFloat64 may round differently because the observation
// order changes, exactly like the parallel path).
func GroupBySortGov(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string) (*table.Table, error) {
	if err := validateRequest(t, groupCols, aggs); err != nil {
		return nil, err
	}
	if len(groupCols) == 0 {
		// A single global group carries O(1) hash state; nothing to spill.
		return GroupByHashGov(gov, t, nil, aggs, outName)
	}
	budget := gov.Budget()
	sortBytes := int64(t.NumRows()) * 8 // permutation + group bounds
	budget.Add(sortBytes)
	defer budget.Release(sortBytes)
	if err := gov.Err(); err != nil { // poll before the O(n log n) sort
		return nil, err
	}
	ix := index.Build(t, "tmp_sort", groupCols, false)
	perm, bounds := ix.Perm(), ix.Bounds()
	nGroups := ix.NumGroups()
	accs := newAccs(aggs, t)
	firstRows := make([]int32, nGroups)
	for g := range firstRows {
		firstRows[g] = perm[bounds[g]] // stable sort: min row of the group
	}
	gids := make([]int32, blockLen(len(perm)))
	g := 0
	for lo := 0; lo < len(perm); lo += cancelCheckRows {
		Testing.Fire("exec.sort.stream")
		if err := gov.Err(); err != nil {
			return nil, err
		}
		rows := perm[lo:min(lo+cancelCheckRows, len(perm))]
		for i := range rows {
			for int(bounds[g+1]) <= lo+i {
				g++
			}
			gids[i] = int32(g)
		}
		observeAll(accs, gids[:len(rows)], rows, g+1)
	}
	accBytes := accStateBytes(nGroups, len(accs))
	budget.Add(accBytes)
	defer budget.Release(accBytes)
	order := make([]int, nGroups)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return firstRows[order[a]] < firstRows[order[b]] })
	return emitGroups(t, groupCols, aggs, accs, firstRows, order, outName), nil
}

// GroupByIndexStream computes the group-by by walking an index whose key has
// groupCols as a prefix (in order): rows arrive clustered by group, so a
// boundary scan replaces the hash table. Panics when the index does not cover
// groupCols as a prefix — the planner must not choose this path otherwise.
func GroupByIndexStream(t *table.Table, ix *index.Index, groupCols []int, aggs []Agg, outName string) *table.Table {
	out, err := GroupByIndexStreamGov(nil, t, ix, groupCols, aggs, outName)
	if err != nil {
		panic(err)
	}
	return out
}

// GroupByIndexStreamGov is the governed index-stream aggregate; it polls
// gov's context every cancelCheckRows rows. A non-prefix index remains a
// panic: the planner choosing this path for an incompatible index is a
// genuine invariant violation, caught at the ExecutePlan recovery boundary.
func GroupByIndexStreamGov(gov *Gov, t *table.Table, ix *index.Index, groupCols []int, aggs []Agg, outName string) (*table.Table, error) {
	set := setOf(groupCols)
	if ix.PrefixLen(set) == 0 {
		panic(fmt.Sprintf("exec: index %s does not prefix-cover %v", ix.Name(), groupCols))
	}
	if err := validateRequest(t, groupCols, aggs); err != nil {
		return nil, err
	}
	codes := make([][]uint32, len(groupCols))
	for i, c := range groupCols {
		codes[i] = t.Col(c).Codes()
	}
	accs := newAccs(aggs, t)
	perm := ix.Perm()
	var firstRows []int32
	gids := make([]int32, blockLen(len(perm)))
	for lo := 0; lo < len(perm); lo += cancelCheckRows {
		Testing.Fire("exec.sort.stream")
		if err := gov.Err(); err != nil {
			return nil, err
		}
		rows := perm[lo:min(lo+cancelCheckRows, len(perm))]
		for i, row := range rows {
			newGroup := lo+i == 0
			if !newGroup {
				prev := perm[lo+i-1]
				for _, col := range codes {
					if col[row] != col[prev] {
						newGroup = true
						break
					}
				}
			}
			if newGroup {
				firstRows = append(firstRows, row)
			}
			gids[i] = int32(len(firstRows) - 1)
		}
		observeAll(accs, gids[:len(rows)], rows, len(firstRows))
	}
	return emitGroups(t, groupCols, aggs, accs, firstRows, nil, outName), nil
}

// validateRequest rejects malformed group-by requests — out-of-range group
// or aggregate source columns — with a returned error instead of a panic, so
// a bad plan degrades into a failed query rather than a crashed process.
func validateRequest(t *table.Table, groupCols []int, aggs []Agg) error {
	for _, c := range groupCols {
		if c < 0 || c >= t.NumCols() {
			return fmt.Errorf("exec: group column %d out of range for table %q (%d cols)", c, t.Name(), t.NumCols())
		}
	}
	for _, a := range aggs {
		if a.Kind != AggCountStar && (a.Col < 0 || a.Col >= t.NumCols()) {
			return fmt.Errorf("exec: aggregate %q source column %d out of range for table %q (%d cols)", a.Name, a.Col, t.Name(), t.NumCols())
		}
	}
	return nil
}

// accStateBytes approximates the accumulator memory of a finished
// aggregation (counts, sums, seen flags — roughly 16 bytes per group per
// aggregate), charged transiently against the budget so PeakMem reflects
// aggregation state, not just hash-table slots.
func accStateBytes(groups, naccs int) int64 {
	return int64(groups) * 16 * int64(naccs)
}

// GroupByIndexCounts is the exact-match fast path: a COUNT(*) Group By on
// precisely the index key reads group sizes straight off the boundaries in
// O(#groups) — the §6.9 effect where building an index on a dense column
// (e.g. l_comment) collapses its Group By cost.
func GroupByIndexCounts(t *table.Table, ix *index.Index, outName string) *table.Table {
	groupCols := ix.Cols()
	perm, bounds := ix.Perm(), ix.Bounds()
	nGroups := ix.NumGroups()
	cols := make([]*table.Column, 0, len(groupCols)+1)
	for _, c := range groupCols {
		cols = append(cols, t.Col(c).EmptyLike(t.Col(c).Name()))
	}
	cnt := make([]int64, nGroups)
	for g := range cnt {
		first := int(perm[bounds[g]])
		for i, c := range groupCols {
			cols[i].AppendCode(t.Col(c).Code(first))
		}
		cnt[g] = int64(bounds[g+1] - bounds[g])
	}
	cols = append(cols, table.MeasureColumn("cnt", cnt, nil))
	return table.FromColumns(outName, cols)
}

// GroupByIndexPrefixCounts is the prefix-match fast path for COUNT(*): a
// Group By on a proper key prefix walks the index's full-key group
// boundaries — O(#full-key groups), touching only group-start rows — summing
// run lengths whenever the prefix codes repeat. This models reading the
// index's leaf level instead of the base table, the §6.9 benefit of
// non-clustered indexes.
func GroupByIndexPrefixCounts(t *table.Table, ix *index.Index, prefixCols []int, outName string) *table.Table {
	set := setOf(prefixCols)
	k := ix.PrefixLen(set)
	if k == 0 {
		panic(fmt.Sprintf("exec: index %s does not prefix-cover %v", ix.Name(), prefixCols))
	}
	codes := make([][]uint32, len(prefixCols))
	for i, c := range prefixCols {
		codes[i] = t.Col(c).Codes()
	}
	perm, bounds := ix.Perm(), ix.Bounds()
	cols := make([]*table.Column, 0, len(prefixCols)+1)
	for _, c := range prefixCols {
		cols = append(cols, t.Col(c).EmptyLike(t.Col(c).Name()))
	}
	var cnt []int64
	run := int64(0)
	var prevStart int32 = -1
	flush := func() {
		if prevStart < 0 {
			return
		}
		for i, col := range codes {
			cols[i].AppendCode(col[prevStart])
		}
		cnt = append(cnt, run)
	}
	for g := 0; g < ix.NumGroups(); g++ {
		start := perm[bounds[g]]
		newGroup := prevStart < 0
		if !newGroup {
			for _, col := range codes {
				if col[start] != col[prevStart] {
					newGroup = true
					break
				}
			}
		}
		if newGroup {
			flush()
			prevStart = start
			run = 0
		}
		run += int64(bounds[g+1] - bounds[g])
	}
	flush()
	cols = append(cols, table.MeasureColumn("cnt", cnt, nil))
	return table.FromColumns(outName, cols)
}

// emitGroups assembles the output table: group key columns share the input's
// dictionaries; each accumulator builds its own column (see
// accumulator.column) and must not be used afterwards. order, when non-nil,
// is a permutation of group ids giving the output row order (the sort kernel
// uses it to restore global first-appearance order); nil emits groups in id
// order.
func emitGroups(t *table.Table, groupCols []int, aggs []Agg, accs []accumulator, firstRows []int32, order []int, outName string) *table.Table {
	nGroups := len(firstRows)
	cols := make([]*table.Column, 0, len(groupCols)+len(aggs))
	for _, c := range groupCols {
		src := t.Col(c)
		srcCodes := src.Codes()
		out := src.EmptyLike(src.Name())
		codes := make([]uint32, nGroups)
		if order == nil {
			for i, row := range firstRows {
				codes[i] = srcCodes[row]
			}
		} else {
			for i, g := range order {
				codes[i] = srcCodes[firstRows[g]]
			}
		}
		out.AppendCodes(codes)
		cols = append(cols, out)
	}
	for i, a := range aggs {
		cols = append(cols, accs[i].column(a.Name, nGroups, order))
	}
	return table.FromColumns(outName, cols)
}

// rowReader extracts key-column codes from a table's row-major scan image.
type rowReader struct {
	image  []byte
	stride int
	offs   []int // byte offsets of the key columns within one row
	// seed perturbs hashRow; operators snapshot the process seed here at
	// construction (zero — e.g. in tests building a bare rowReader —
	// reproduces the historical fixed-constant hash).
	seed uint64
}

// code reads key column k of row r.
func (rd rowReader) code(r int, k int) uint32 {
	return binary.LittleEndian.Uint32(rd.image[r*rd.stride+rd.offs[k]:])
}

// keyMode is how a groupHash reaches a row's group (see groupHash).
type keyMode uint8

// Key modes.
const (
	keyPacked keyMode = iota
	keyWide
	keyDense
)

// groupHash maps code tuples to dense group ids, handed out in
// first-appearance order. It reaches a group in one of three key modes:
//
//   - dense: a row's codes fold mixed-radix (mults[k] = Π_{j<k}(dict_j+1))
//     into one integer below DenseDomain that indexes a flat group-id array —
//     one array access per row, no hash and no compare. It is picked by the
//     caller (ChooseKernel) for small domains.
//   - packed: each key column gets bits.Len32(DictSize()) bits, and when the
//     widths sum to at most 64 a row's codes fold into one uint64, probed in
//     an open-addressing array of 16-byte slots: one seeded mix per key and
//     one integer compare per slot visited.
//   - wide: otherwise the slot key is the row's seeded hashRow, and a match is
//     confirmed against the representative row's codes.
//
// Dense and packed decode a block's keys column-major (decodeKeys) and trust
// that every code fits its column (code ≤ DictSize, or its width). The decode
// checks each column's largest code in a block before any row of the block
// is probed; a block that breaks it converts the table to wide mode first
// (widen), so a bad code degrades speed, never merges two groups. Group ids
// and their first rows do not depend on the mode.
type groupHash struct {
	rd   rowReader
	mode keyMode
	// mults and limits are the dense or packed key layout, one entry per key
	// column: the column's code is multiplied by mults and must not exceed
	// limits.
	mults  []uint64
	limits []uint32
	keys   []uint64 // the block's decoded keys, reused across blocks
	// gid is the dense mode's group-id array: key → group id + 1 (0 = empty).
	gid   []int32
	mask  uint64
	slots []groupSlot
	// firstRows is each group's first row, in group-id order; its length is
	// the number of groups handed out so far.
	firstRows []int32

	// budget, when non-nil, is charged for slot and group-id memory as the
	// table grows; charged is the running total the owner releases when the
	// operator finishes.
	budget  *MemBudget
	charged int64

	// initSize is the slot count the table was created with, kept so
	// rehashesAvoided can compare against the growth path a default-sized
	// table would have walked.
	initSize int
}

// groupSlot is one slot of a groupHash: key is the packed code tuple (packed
// mode) or the row's hashRow (wide mode), group is the group id + 1 (0 =
// empty), row is the group's representative row.
type groupSlot struct {
	key   uint64
	group int32
	row   int32
}

// slotBytes is the per-slot memory of a groupHash (key 8 + group 4 + row 4).
const slotBytes = 16

// groupHashInitSize is the starting slot count of a groupHash. Tables start
// small — a low-NDV aggregation over millions of rows never allocates more
// than a few KB — and grow by doubling when the load factor passes 3/4.
// (Pre-sizing to 2×rows made a 6M-row scan with 10 groups allocate ~16M slots
// per query; across a shared scan that was hundreds of MB of dead memory.)
const groupHashInitSize = 1024

// groupHashMaxPresize caps how many slots an NDV estimate may preallocate: a
// wildly high estimate must not turn into a giant dead allocation.
const groupHashMaxPresize = 1 << 22

// newGroupHash creates the group table for grouping t by cols. With dense set
// and a non-empty DenseDomain it starts in dense mode, allocating the
// domain-sized group-id array. Otherwise the key mode is packed or wide by
// the columns' dictionary sizes, and the slot array is presized for sizeHint
// expected groups (0 means the default groupHashInitSize): the smallest power
// of two keeping sizeHint groups under the 3/4 load factor, clamped by
// groupHashMaxPresize and halved until the budget admits it — a tight budget
// degrades the presize back toward the default rather than failing
// admission.
func newGroupHash(t *table.Table, cols []int, budget *MemBudget, sizeHint int, dense bool) *groupHash {
	h := &groupHash{
		rd:       keyReader(t, cols),
		mults:    make([]uint64, len(cols)),
		limits:   make([]uint32, len(cols)),
		budget:   budget,
		initSize: groupHashInitSize,
	}
	if domain := DenseDomain(t, cols); dense && domain > 0 {
		h.mode, h.gid = keyDense, make([]int32, domain)
		h.charge(int64(domain) * 4)
		m := uint64(1)
		for i, c := range cols {
			size := t.Col(c).DictSize()
			h.mults[i], h.limits[i] = m, uint32(size)
			m *= uint64(size + 1)
		}
		return h
	}
	size := groupHashInitSize
	if sizeHint > 0 {
		for size < groupHashMaxPresize && uint64(sizeHint+1)*4 > uint64(size)*3 {
			size <<= 1
		}
		for size > groupHashInitSize && budget.WouldExceed(int64(size)*slotBytes) {
			size >>= 1
		}
	}
	h.mask, h.slots, h.initSize = uint64(size-1), make([]groupSlot, size), size
	h.charge(int64(size) * slotBytes)
	var shift uint
	for i, c := range cols {
		w := uint(bits.Len32(uint32(t.Col(c).DictSize())))
		// A shift of 64 leaves a zero multiplier: only a zero-width column
		// (all codes NULL) can sit there, and its codes are zero anyway.
		h.mults[i], h.limits[i] = uint64(1)<<shift, uint32(1<<w-1)
		shift += w
	}
	if shift > 64 {
		h.mode = keyWide
	}
	return h
}

// kind is the kernel this table ran as: dense while it stays in dense mode,
// hash otherwise.
func (h *groupHash) kind() KernelKind {
	if h.mode == keyDense {
		return KernelDense
	}
	return KernelHash
}

// rehashesAvoided reports how many grow() doublings the presize saved: the
// doublings a default-sized table would have needed to reach the smaller of
// (a) the presized start and (b) the size the final group count actually
// required. A presize larger than the data needed does not inflate the count.
func (h *groupHash) rehashesAvoided() int {
	needed := groupHashInitSize
	for uint64(len(h.firstRows)+1)*4 > uint64(needed)*3 {
		needed <<= 1
	}
	saved := h.initSize
	if needed < saved {
		saved = needed
	}
	n := 0
	for s := groupHashInitSize; s < saved; s <<= 1 {
		n++
	}
	return n
}

// charge accounts n bytes of table memory against the budget.
func (h *groupHash) charge(n int64) {
	if h.budget == nil {
		return
	}
	h.budget.Add(n)
	h.charged += n
}

// assign sets gids[i] to the group of row lo+i for the block of rows
// [lo, lo+len(gids)), handing out new groups in row order. A dense or packed
// table decodes the whole block first; a block holding a code too wide for
// its column widens the table before any of its rows is probed.
func (h *groupHash) assign(lo int, gids []int32) {
	if h.mode != keyWide {
		if cap(h.keys) < len(gids) {
			h.keys = make([]uint64, len(gids))
		}
		keys := h.keys[:len(gids)]
		if decodeKeys(keys, h.rd, lo, h.mults, h.limits) {
			if h.mode == keyDense {
				h.probeDense(keys, lo, gids)
			} else {
				h.probePacked(keys, lo, gids)
			}
			return
		}
		h.widen()
	}
	for i := range gids {
		gids[i] = h.probeWide(lo + i)
	}
}

// groupOf returns the group of one row, probed as a one-row block. The merge
// folds the other shares' groups into the first share's table with it.
func (h *groupHash) groupOf(row int) int {
	var gid [1]int32
	h.assign(row, gid[:])
	return int(gid[0])
}

// probeDense maps the dense keys of rows [lo, lo+len(keys)) to group ids:
// one group-id array access per row.
func (h *groupHash) probeDense(keys []uint64, lo int, gids []int32) {
	gid := h.gid
	gids = gids[:len(keys)]
	for i, key := range keys {
		g := gid[key]
		if g == 0 {
			h.firstRows = append(h.firstRows, int32(lo+i))
			g = int32(len(h.firstRows))
			gid[key] = g
		}
		gids[i] = g - 1
	}
}

// probePacked maps the packed keys of rows [lo, lo+len(keys)) to group ids.
// The table grows only on the insert path, after which the key's probe
// restarts in the larger table (the key is known to be absent).
func (h *groupHash) probePacked(keys []uint64, lo int, gids []int32) {
	seed, slots, mask := h.rd.seed, h.slots, h.mask
	gids = gids[:len(keys)]
	for i, key := range keys {
		slot := mixKey(key, seed) & mask
		for {
			s := &slots[slot]
			if s.group == 0 {
				if h.full() {
					h.grow()
					slots, mask = h.slots, h.mask
					slot = mixKey(key, seed) & mask
					continue
				}
				gids[i] = h.insert(s, key, lo+i)
				break
			}
			if s.key == key {
				gids[i] = s.group - 1
				break
			}
			slot = (slot + 1) & mask
		}
	}
}

// probeWide returns the group of row in wide mode.
func (h *groupHash) probeWide(row int) int32 {
	hash := hashRow(h.rd, row)
	slot := hash & h.mask
	for {
		s := &h.slots[slot]
		switch {
		case s.group == 0 && h.full():
			h.grow()
			slot = hash & h.mask
			continue
		case s.group == 0:
			return h.insert(s, hash, row)
		case s.key == hash && h.rowsEqual(s.row, int32(row)):
			return s.group - 1
		}
		slot = (slot + 1) & h.mask
	}
}

// full reports whether one more group would push the table past its 3/4
// load factor.
func (h *groupHash) full() bool {
	return uint64(len(h.firstRows)+1)*4 > (h.mask+1)*3
}

// insert claims empty slot s for a new group keyed by key whose first row is
// row, and returns the group's id.
func (h *groupHash) insert(s *groupSlot, key uint64, row int) int32 {
	h.firstRows = append(h.firstRows, int32(row))
	g := int32(len(h.firstRows))
	*s = groupSlot{key: key, group: g, row: int32(row)}
	return g - 1
}

// grow doubles the slot array; keys are never re-read from the table.
func (h *groupHash) grow() {
	size := len(h.slots) << 1
	h.charge(int64(size-len(h.slots)) * slotBytes)
	old := h.slots
	h.mask, h.slots = uint64(size-1), make([]groupSlot, size)
	for _, s := range old {
		if s.group != 0 {
			h.place(s)
		}
	}
}

// place puts occupied slot s at the first free slot of its probe sequence:
// its stored hashRow in wide mode, the mixed packed key otherwise.
func (h *groupHash) place(s groupSlot) {
	hash := s.key
	if h.mode == keyPacked {
		hash = mixKey(s.key, h.rd.seed)
	}
	slot := hash & h.mask
	for h.slots[slot].group != 0 {
		slot = (slot + 1) & h.mask
	}
	h.slots[slot] = s
}

// widen switches the table to wide mode, keying every group by its first
// row's hashRow in a slot array sized for the groups held; group ids and
// their order are kept. A dense table drops its group-id array here.
func (h *groupHash) widen() {
	h.mode, h.gid = keyWide, nil
	size := max(len(h.slots), groupHashInitSize)
	for uint64(len(h.firstRows)+1)*4 > uint64(size)*3 {
		size <<= 1
	}
	h.charge(int64(size-len(h.slots)) * slotBytes)
	h.mask, h.slots = uint64(size-1), make([]groupSlot, size)
	for g, row := range h.firstRows {
		h.place(groupSlot{key: hashRow(h.rd, int(row)), group: int32(g + 1), row: row})
	}
}

func (h *groupHash) rowsEqual(a, b int32) bool {
	for k := range h.rd.offs {
		if h.rd.code(int(a), k) != h.rd.code(int(b), k) {
			return false
		}
	}
	return true
}

// mixKey is the packed mode's hash: a splitmix64 finalizer over the packed
// key xor the seed, so slot layouts differ across processes.
func mixKey(key, seed uint64) uint64 {
	h := key ^ seed
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashRow mixes the code tuple of one row with a splitmix-style finalizer,
// perturbed by the reader's seed so hash layouts differ across processes.
func hashRow(rd rowReader, row int) uint64 {
	h := 0x9e3779b97f4a7c15 ^ rd.seed
	for k := range rd.offs {
		h ^= uint64(rd.code(row, k)) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	// Final avalanche so empty tuples and single columns spread too.
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	if h == 0 {
		h = 1
	}
	return h
}

func setOf(cols []int) colset.Set { return colset.Of(cols...) }
