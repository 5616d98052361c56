package datagen

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkLineitemBytesPerRow builds lineitem at 100 000 and 1 000 000 rows
// and reports what one row costs to hold and to build: the heap a built
// table retains per row, its scan image included (heap-B/row), and the build
// time per row (build-ns/row).
func BenchmarkLineitemBytesPerRow(b *testing.B) {
	for _, rows := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var heap, ns float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				start := time.Now()
				t := Lineitem(LineitemOpts{Rows: rows, Seed: 1})
				t.RowImage()
				ns += float64(time.Since(start).Nanoseconds()) / float64(rows)
				runtime.GC()
				runtime.ReadMemStats(&after)
				heap += float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(rows)
				runtime.KeepAlive(t)
			}
			b.ReportMetric(heap/float64(b.N), "heap-B/row")
			b.ReportMetric(ns/float64(b.N), "build-ns/row")
		})
	}
}
