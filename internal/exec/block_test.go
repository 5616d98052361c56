package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gbmqo/internal/index"
	"gbmqo/internal/table"
)

// TestKernelBlockBoundaries runs every path that feeds accumulators a block
// at a time over inputs sized around the 4096-row block: empty, one row, one
// short of a block, exactly one, one past, and three blocks plus a row. Keys
// and aggregate inputs carry NULLs, and all six aggregate kinds run. Each
// path must reproduce GroupBySortGov cell by cell (index-stream emits in key
// order, so its rows are compared as a set), COUNT(*) must match a map count,
// the block loop's failpoint must fire once per block in both key modes, and
// a cancel raised at a block boundary must stop the scan there.
func TestKernelBlockBoundaries(t *testing.T) {
	groupCols := []int{0, 1}
	aggs := kernelAggs()
	for _, n := range []int{0, 1, cancelCheckRows - 1, cancelCheckRows, cancelCheckRows + 1, 3*cancelCheckRows + 1} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			src := kernelTable(n, 7, 5, 0, int64(20+n))
			budget := NewMemBudget(0)
			gov := NewGov(context.Background(), budget)
			ref, err := GroupBySortGov(gov, src, groupCols, aggs, "g")
			if err != nil {
				t.Fatal(err)
			}
			want := dumpTable(ref)
			checkKeyCounts(t, "sort", src, ref, nil)
			check := func(path string, got *table.Table, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if d := dumpTable(got); d != want {
					t.Errorf("%s differs from the sort kernel\nsort:\n%s\n%s:\n%s", path, want, path, d)
				}
			}

			hashFires := countFires("exec.hash.batch", func() {
				out, err := GroupByHashGov(gov, src, groupCols, aggs, "g")
				check("hash", out, err)
			})
			denseFires := countFires("exec.hash.batch", func() {
				out, ks, err := denseGroupBy(gov, src, groupCols, aggs, 1)
				check("dense", out, err)
				if ks.Kind != KernelDense {
					t.Errorf("dense ran %v", ks.Kind)
				}
			})
			blocks := (n + cancelCheckRows - 1) / cancelCheckRows
			if hashFires != blocks || denseFires != blocks {
				t.Errorf("batch failpoint fired hash %d, dense %d times over %d rows, want %d each", hashFires, denseFires, n, blocks)
			}

			queries := []MultiQuery{
				{GroupCols: groupCols, Aggs: aggs, OutName: "g"},
				{GroupCols: groupCols, Aggs: aggs, OutName: "g", SizeHint: 35},
			}
			outs, _, err := sharedScan(gov, src, queries, 1)
			if err != nil {
				t.Fatalf("shared scan: %v", err)
			}
			for qi := range queries {
				check(fmt.Sprintf("shared-scan[%d]", qi), outs[qi], nil)
			}
			for _, dense := range []bool{false, true} {
				q := queries[0]
				q.dense = dense
				outs, _, err = groupBy(gov, src, []MultiQuery{q}, 3)
				check(fmt.Sprintf("shares(dense=%v)", dense), outs[0], err)
			}

			ix := index.Build(src, "ix", groupCols, false)
			stream, err := GroupByIndexStreamGov(gov, src, ix, groupCols, aggs, "g")
			if err != nil {
				t.Fatalf("index-stream: %v", err)
			}
			if got, exp := sortedRows(stream), sortedRows(ref); got != exp {
				t.Errorf("index-stream rows differ from the sort kernel\nsort:\n%s\nindex-stream:\n%s", exp, got)
			}
			if used := budget.Used(); used != 0 {
				t.Errorf("budget not drained: %d bytes still charged", used)
			}

			if blocks < 2 {
				return
			}
			// Cancel while the second block's failpoint fires: the scan must
			// stop at that boundary, never reaching a third block.
			for _, c := range []struct {
				path string
				run  func(gov *Gov) error
			}{
				{"hash", func(gov *Gov) error { _, err := GroupByHashGov(gov, src, groupCols, aggs, "g"); return err }},
				{"dense", func(gov *Gov) error {
					_, _, err := denseGroupBy(gov, src, groupCols, aggs, 1)
					return err
				}},
			} {
				ctx, cancel := context.WithCancel(context.Background())
				fires := countFiresWith("exec.hash.batch", func(k int) {
					if k == 2 {
						cancel()
					}
				}, func() {
					if err := c.run(NewGov(ctx, nil)); !errors.Is(err, context.Canceled) {
						t.Errorf("%s: err = %v, want context.Canceled", c.path, err)
					}
				})
				cancel()
				if fires != 2 {
					t.Errorf("%s: scan ran %d blocks after a cancel in block 2, want it to stop there", c.path, fires)
				}
			}
		})
	}
}

// countFires runs fn and returns how often the failpoint site fired.
func countFires(site string, fn func()) int {
	return countFiresWith(site, func(int) {}, fn)
}

// countFiresWith runs fn with a failpoint hook that calls onFire with the
// 1-based count of each firing of site, and returns the final count.
func countFiresWith(site string, onFire func(k int), fn func()) int {
	k := 0
	Testing.SetFailPoint(func(s string) {
		if s == site {
			k++
			onFire(k)
		}
	})
	defer Testing.ClearFailPoint()
	fn()
	return k
}

// sortedRows is dumpTable with its data rows sorted, for comparing outputs
// whose row order legitimately differs.
func sortedRows(t *table.Table) string {
	lines := strings.Split(dumpTable(t), "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}
