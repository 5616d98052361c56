package exec

import (
	"fmt"
	"time"

	"gbmqo/internal/table"
)

// KernelKind enumerates the physical aggregation kernels the adaptive layer
// chooses among (see ChooseKernel): the group table in a hashed key mode
// (packed or wide), the sort-based low-memory fallback, and the group table
// in its dense key mode, a flat group-id array for small group-code domains.
// Hash and dense share one table, one block loop and one parallel driver
// (see groupHash and groupBy); only the key mode differs.
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
	// Merge is the wall time spent folding the other workers' partial state
	// into the first worker's (zero when sequential).
	Merge time.Duration
	// Reason is the chooser's explanation for picking this kernel (empty when
	// the kernel was invoked directly rather than via GroupByMultiGov).
	Reason string
	// Fallbacks lists preferred kernels rejected by budget admission before
	// this one ran.
	Fallbacks []KernelFallback
}

// denseMaxDomain caps the dense key mode's group-code domain: each share's
// group-id array costs 4 bytes per domain slot, so 1<<20 bounds it at 4 MiB.
const denseMaxDomain = 1 << 20

// denseStateBytes is the chooser's admission quantity for the dense key mode
// at w workers: a domain-sized group-id array plus one block's key vector per
// share, and in parallel one more array's headroom for the merge, whose
// target table may widen. The tables charge what they allocate.
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

// keyReader builds the row-image reader for a set of key columns. The
// table's row-major image is the only copy of its codes, so every kernel
// scans key codes through it: touching any column of a row pulls the whole
// row's bytes, and every kernel pays the same width-proportional scan cost as
// the row store the paper modeled (see table.RowImage). Kernel wins must come
// from probe mechanics, not from quietly turning the storage engine columnar.
func keyReader(t *table.Table, cols []int) rowReader {
	image, stride := t.RowImage()
	rd := rowReader{image: image, stride: stride, offs: make([]int, len(cols)), seed: hashSeed.Load()}
	for i, c := range cols {
		rd.offs[i] = 4 * c
	}
	return rd
}

// decodeKeys folds the key codes of rows [lo, lo+len(dst)) into dst, dst[i] =
// Σ_k code_k·mults[k], reading the row-store scan image column-major: one
// tight strided multiply-add loop per key column (the vectorized decode the
// dense and packed key modes share). It returns false, leaving dst partly
// folded, as soon as a column's largest code in the block exceeds its limits
// entry.
func decodeKeys(dst []uint64, rd rowReader, lo int, mults []uint64, limits []uint32) bool {
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
				dst[i] = uint64(code) * mk
				p += stride
			}
		} else {
			for i := range dst {
				code := uint32(img[p]) | uint32(img[p+1])<<8 | uint32(img[p+2])<<16 | uint32(img[p+3])<<24
				top = max(top, code)
				dst[i] += uint64(code) * mk
				p += stride
			}
		}
		if top > limits[k] {
			return false
		}
	}
	return true
}
