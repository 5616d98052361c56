// Package datagen builds the deterministic synthetic datasets used by the
// experiments. Each generator reproduces the *column-cardinality structure* of
// the corresponding dataset in the paper's evaluation (Table 1) — correlated
// date columns, low-cardinality flags, hierarchy-shaped dimension columns and
// high-cardinality identifier/comment columns — scaled down so the benchmark
// harness runs on one machine. Plan choice in GB-MQO depends on the ratios
// |GroupBy(v)| / |R|, which these generators keep in the paper's regime.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"gbmqo/internal/table"
)

// rng returns a deterministic random source for a dataset generator. All
// generators are pure functions of (rows, seed, knobs).
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// pick returns a uniformly random element of vals.
func pick(r *rand.Rand, vals []string) string { return vals[r.Intn(len(vals))] }

// zipfDrawer draws Zipf(z)-distributed indexes over arbitrary domain sizes by
// inverse-CDF sampling: P(i) ∝ 1/(i+1)^z. Unlike math/rand's Zipf it supports
// the full 0 ≤ z ≤ 1 range the paper sweeps (§6.8: "varying Zipfian
// distributions of skew factor 0, 0.5, 1, 1.5, 2, 2.5, 3"). Cumulative tables
// are cached per domain size.
type zipfDrawer struct {
	r   *rand.Rand
	z   float64
	cum map[int][]float64
}

func newZipfDrawer(r *rand.Rand, z float64) *zipfDrawer {
	return &zipfDrawer{r: r, z: z, cum: map[int][]float64{}}
}

// index draws from [0, n).
func (d *zipfDrawer) index(n int) int {
	if n <= 1 {
		return 0
	}
	if d.z <= 0 {
		return d.r.Intn(n)
	}
	cum, ok := d.cum[n]
	if !ok {
		cum = make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += math.Pow(float64(i+1), -d.z)
			cum[i] = total
		}
		d.cum[n] = cum
	}
	u := d.r.Float64() * cum[n-1]
	// Binary search for the first cumulative weight >= u.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Widen returns a copy of t with every column repeated `copies` times
// (including the original), suffixing repeated column names with _2, _3, ….
// This reproduces the §6.4 scaling setup: "we start with the projection of the
// lineitem relation on its 12 non-floating-point columns, and widen it by
// repeating all 12 columns".
func Widen(t *table.Table, copies int) *table.Table {
	if copies < 1 {
		panic(fmt.Sprintf("datagen: Widen copies = %d", copies))
	}
	n := t.NumCols()
	b := table.NewBuilder(fmt.Sprintf("%s_w%d", t.Name(), copies), t.NumRows(), n*copies)
	for rep := 0; rep < copies; rep++ {
		for i := 0; i < n; i++ {
			src := t.Col(i)
			def := src.Def()
			if rep > 0 {
				def.Name = fmt.Sprintf("%s_%d", def.Name, rep+1)
			}
			col := b.Add(def)
			for r := 0; r < src.Len(); r++ {
				b.SetValue(r, col, src.Value(r))
			}
		}
	}
	return b.Table()
}
