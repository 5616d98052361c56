package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gbmqo/internal/table"
)

// KernelKind enumerates the physical aggregation kernels the adaptive layer
// chooses among (see ChooseKernel): the open-addressing hash aggregate
// (sequential or morsel-parallel), the sort-based low-memory fallback, and
// the dense accumulator-array kernel for small group-code domains.
type KernelKind int

// Kernel kinds (hash is the default and the reference).
const (
	KernelHash KernelKind = iota
	KernelSort
	KernelDense
)

// String names the kernel as reported in ExecReport attribution.
func (k KernelKind) String() string {
	switch k {
	case KernelHash:
		return "hash"
	case KernelSort:
		return "sort"
	case KernelDense:
		return "dense"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// KernelFallback records one kernel the chooser preferred but could not admit
// under the memory budget before falling down the ladder.
type KernelFallback struct {
	Kind   KernelKind
	Detail string
}

// KernelStats describes how one aggregation kernel executed.
type KernelStats struct {
	// Kind is the kernel that actually ran.
	Kind KernelKind
	// Workers is the number of goroutines that scanned input rows
	// (1 = sequential).
	Workers int
	// Groups is the number of output groups.
	Groups int
	// RehashesAvoided counts hash-table doublings skipped because the group
	// table was presized from the statistics NDV estimate.
	RehashesAvoided int
	// Merge is the wall time spent combining per-worker state into the final
	// result.
	Merge time.Duration
	// Reason is the chooser's explanation for picking this kernel (empty when
	// the kernel was invoked directly rather than via GroupByAdaptiveGov).
	Reason string
	// Fallbacks lists preferred kernels rejected by budget admission before
	// this one ran.
	Fallbacks []KernelFallback
}

// denseMaxDomain caps the dense kernel's group-code domain: the per-scan
// group-id array costs 4 bytes per domain slot, so 1<<20 bounds it at 4 MiB.
const denseMaxDomain = 1 << 20

// denseStateBytes is the dense kernel's working state at w workers: a
// domain-sized group-id array plus one block's code vector per scan, and in
// parallel one more array as the merge target. It is both the chooser's
// admission quantity and the kernel's budget charge.
func denseStateBytes(domain, w int) int64 {
	need := int64(domain)*4 + cancelCheckRows*4
	if w > 1 {
		need *= int64(w + 1)
	}
	return need
}

// DenseDomain returns the size of the dense group-code domain for grouping t
// by groupCols — Π(dictSize_k+1), the +1 covering the NULL code — or 0 when
// there are no group columns or the product exceeds denseMaxDomain.
func DenseDomain(t *table.Table, groupCols []int) int {
	if len(groupCols) == 0 {
		return 0
	}
	domain := 1
	for _, c := range groupCols {
		d := t.Col(c).DictSize() + 1
		if domain > denseMaxDomain/d {
			return 0
		}
		domain *= d
	}
	return domain
}

// denseKey is the dense kernel's key layout: the mixed-radix multipliers
// mapping a code tuple to its dense group code, dc = Σ codes[k]·mults[k] with
// mults[k] = Π_{j<k}(dict_j+1), and each column's largest valid code (its
// DictSize). Only valid when DenseDomain returned non-zero.
type denseKey struct {
	mults  []int32
	limits []uint32
}

func newDenseKey(t *table.Table, groupCols []int) denseKey {
	key := denseKey{mults: make([]int32, len(groupCols)), limits: make([]uint32, len(groupCols))}
	m := int32(1)
	for k, c := range groupCols {
		size := t.Col(c).DictSize()
		key.mults[k], key.limits[k] = m, uint32(size)
		m *= int32(size + 1)
	}
	return key
}

// errDenseCode reports a key code above its column's dictionary size. The
// mixed-radix fold would alias it onto another tuple's dense code (a silent
// merge) or index past the group-id array, so the node runs on hash instead.
var errDenseCode = errors.New("exec: key code above its dictionary size; outside the dense domain")

// keyReader builds the row-image reader for a set of key columns. All
// kernels scan key codes through the table's row-major image, never through
// raw column vectors: touching any column of a row pulls the whole row's
// bytes, so every kernel pays the same width-proportional scan cost as the
// row store the paper modeled (see table.RowImage). Kernel wins must come
// from probe mechanics, not from quietly turning the storage engine columnar.
func keyReader(t *table.Table, cols []int) rowReader {
	image, stride := t.RowImage()
	rd := rowReader{image: image, stride: stride, offs: make([]int, len(cols)), seed: hashSeed.Load()}
	for i, c := range cols {
		rd.offs[i] = 4 * c
	}
	return rd
}

// denseState is one scan's dense-kernel aggregation state: a code-indexed
// group-id array plus accumulators. dcodes remembers each group's dense code
// in group-id order — the merge key of the parallel path.
type denseState struct {
	gid       []int32 // dense code → group+1; 0 = empty
	accs      []accumulator
	firstRows []int32
	dcodes    []int32
}

// decodeKeys folds the key codes of rows [lo, lo+len(dst)) into dst, dst[i] =
// Σ_k code_k·mults[k], reading the row-store scan image column-major: one
// tight strided multiply-add loop per key column (the vectorized decode the
// dense kernel and the packed hash probe share). It returns false, leaving
// dst partly folded, as soon as a column's largest code in the block exceeds
// its limits entry.
func decodeKeys[K int32 | uint64](dst []K, rd rowReader, lo int, mults []K, limits []uint32) bool {
	if len(mults) == 0 {
		clear(dst) // no key columns: every row is the one empty key
	}
	img, stride := rd.image, rd.stride
	for k, mk := range mults {
		p := lo*stride + rd.offs[k]
		var top uint32
		if k == 0 {
			for i := range dst {
				code := uint32(img[p]) | uint32(img[p+1])<<8 | uint32(img[p+2])<<16 | uint32(img[p+3])<<24
				top = max(top, code)
				dst[i] = K(code) * mk
				p += stride
			}
		} else {
			for i := range dst {
				code := uint32(img[p]) | uint32(img[p+1])<<8 | uint32(img[p+2])<<16 | uint32(img[p+3])<<24
				top = max(top, code)
				dst[i] += K(code) * mk
				p += stride
			}
		}
		if top > limits[k] {
			return false
		}
	}
	return true
}

// denseScan aggregates rows [lo,hi) a block at a time: each block decodes
// the key columns' codes into a dense-code vector (decodeKeys, which checks
// every column's largest code against its dictionary size), probes the flat
// group-id array (turning the vector into group ids in place) and feeds the
// block to the accumulators. stop, when non-nil, aborts at the next block
// boundary after a sibling worker failed.
func denseScan(gov *Gov, st *denseState, rd rowReader, key denseKey, lo, hi int, stop *atomic.Bool) error {
	dc := make([]int32, blockLen(hi-lo))
	rowBuf := make([]int32, len(dc))
	for base := lo; base < hi; base += cancelCheckRows {
		Testing.Fire("exec.dense.batch")
		if err := gov.Err(); err != nil {
			return err
		}
		if stop != nil && stop.Load() {
			return nil
		}
		end := min(base+cancelCheckRows, hi)
		chunk := dc[:end-base]
		if !decodeKeys(chunk, rd, base, key.mults, key.limits) {
			return errDenseCode
		}
		for i, code := range chunk {
			g := st.gid[code]
			if g == 0 {
				st.firstRows = append(st.firstRows, int32(base+i))
				st.dcodes = append(st.dcodes, code)
				g = int32(len(st.firstRows))
				st.gid[code] = g
			}
			chunk[i] = g - 1
		}
		observeAll(st.accs, chunk, rowBlock(rowBuf, base, end), len(st.firstRows))
	}
	return nil
}

// GroupByDenseGov computes the group-by with the dense accumulator-array
// kernel: each row's key codes fold into one dense integer (mixed-radix over
// the key columns' dictionary sizes) indexing a flat group-id array, so the
// probe is a single array access with no hashing or collision chain. It is
// only applicable when the domain Π(dictSize+1) is small (see DenseDomain);
// an inapplicable request returns an error, so callers should route through
// ChooseKernel / GroupByAdaptiveGov. workers > 1 splits the row range into
// static per-worker shares merged in worker order, which preserves the global
// first-appearance output order exactly; like the morsel path, SUM/AVG over
// TFloat64 may round differently in parallel because partial sums combine in
// a different order. A key code above its column's dictionary size cannot be
// placed in the domain; the node then runs on the hash kernel, whose
// packed-key guard widens instead of merging groups.
func GroupByDenseGov(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string, workers int) (*table.Table, KernelStats, error) {
	out, ks, err := groupByDense(gov, t, groupCols, aggs, outName, workers)
	if errors.Is(err, errDenseCode) {
		out, ks, err = hashKernel(gov, t, groupCols, aggs, outName, workers, 0)
		ks.Reason = "dense guard: a key code exceeds its dictionary size; ran hash"
	}
	return out, ks, err
}

// groupByDense is GroupByDenseGov without the hash fallback: a key code
// outside the domain returns errDenseCode after releasing every charge.
func groupByDense(gov *Gov, t *table.Table, groupCols []int, aggs []Agg, outName string, workers int) (*table.Table, KernelStats, error) {
	if err := validateRequest(t, groupCols, aggs); err != nil {
		return nil, KernelStats{}, err
	}
	domain := DenseDomain(t, groupCols)
	if domain == 0 {
		return nil, KernelStats{}, fmt.Errorf("exec: dense kernel inapplicable: group-code domain of %v over %q empty or above %d", groupCols, t.Name(), denseMaxDomain)
	}
	n := t.NumRows()
	w := effectiveWorkers(n, workers)
	rd := keyReader(t, groupCols)
	key := newDenseKey(t, groupCols)
	budget := gov.Budget()
	if w <= 1 {
		stateBytes := denseStateBytes(domain, 1)
		budget.Add(stateBytes)
		defer budget.Release(stateBytes)
		st := &denseState{gid: make([]int32, domain), accs: newAccs(aggs, t)}
		if err := denseScan(gov, st, rd, key, 0, n, nil); err != nil {
			return nil, KernelStats{}, err
		}
		accBytes := accStateBytes(len(st.firstRows), len(st.accs))
		budget.Add(accBytes)
		defer budget.Release(accBytes)
		out := emitGroups(t, groupCols, aggs, st.accs, st.firstRows, nil, outName)
		return out, KernelStats{Kind: KernelDense, Workers: 1, Groups: len(st.firstRows)}, nil
	}

	// Parallel: build the final accumulators in this goroutine before fan-out —
	// their constructors force lazily-built dictionary state (rank tables) that
	// the worker clones then share read-only.
	final := &denseState{gid: make([]int32, domain), accs: newAccs(aggs, t)}
	stateBytes := denseStateBytes(domain, w)
	budget.Add(stateBytes)
	defer budget.Release(stateBytes)
	states := make([]*denseState, w)
	var failed, badCode atomic.Bool
	var workerErr atomic.Pointer[ExecError]
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failed.Store(true)
					workerErr.CompareAndSwap(nil, &ExecError{
						Step: fmt.Sprintf("dense worker %d", wi),
						Err:  RecoveredPanic(p),
					})
				}
			}()
			st := &denseState{gid: make([]int32, domain), accs: cloneAccs(final.accs)}
			states[wi] = st
			if err := denseScan(gov, st, rd, key, wi*n/w, (wi+1)*n/w, &failed); err != nil {
				failed.Store(true) // a context error surfaces below via gov.Err
				if errors.Is(err, errDenseCode) {
					badCode.Store(true)
				}
			}
		}(wi)
	}
	wg.Wait()
	if e := workerErr.Load(); e != nil {
		return nil, KernelStats{Kind: KernelDense, Workers: w}, e
	}
	if err := gov.Err(); err != nil {
		return nil, KernelStats{Kind: KernelDense, Workers: w}, err
	}
	if badCode.Load() {
		return nil, KernelStats{Kind: KernelDense, Workers: w}, errDenseCode
	}

	// Merge workers in index order: worker row ranges ascend, so taking each
	// worker's groups in local first-appearance order and keeping the first
	// sighting per dense code reproduces the global first-appearance order,
	// with the recorded firstRow being the true global first row.
	mergeStart := time.Now()
	for _, st := range states {
		for lg, code := range st.dcodes {
			g := final.gid[code]
			if g == 0 {
				final.firstRows = append(final.firstRows, st.firstRows[lg])
				final.dcodes = append(final.dcodes, code)
				g = int32(len(final.firstRows))
				final.gid[code] = g
			}
			for ai, acc := range final.accs {
				acc.mergePartial(int(g-1), st.accs[ai], lg)
			}
		}
	}
	accBytes := accStateBytes(len(final.firstRows), len(final.accs))
	budget.Add(accBytes)
	defer budget.Release(accBytes)
	out := emitGroups(t, groupCols, aggs, final.accs, final.firstRows, nil, outName)
	return out, KernelStats{Kind: KernelDense, Workers: w, Groups: len(final.firstRows), Merge: time.Since(mergeStart)}, nil
}
