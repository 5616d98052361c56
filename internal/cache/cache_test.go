package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// testTable builds a tiny two-column table; same rows → same MemSize, so
// admission arithmetic in the tests is deterministic.
func testTable(name string, rows int) *table.Table {
	tb := table.New(name, []table.ColumnDef{
		{Name: "a", Typ: table.TInt64},
		{Name: "cnt", Typ: table.TInt64},
	})
	for i := 0; i < rows; i++ {
		tb.AppendRow(table.Int(int64(i%7)), table.Int(1))
	}
	return tb
}

func countStar() []exec.Agg { return []exec.Agg{exec.CountStar()} }

// entrySize is the resident size of a testTable entry: Offer forces the
// row-major scan image, which MemSize then includes.
func entrySize(rows int) int64 {
	tb := testTable("x", rows)
	tb.RowImage()
	return tb.MemSize()
}

func TestAggSignature(t *testing.T) {
	star := exec.Agg{Kind: exec.AggCountStar, Col: 3, Name: "cnt"}
	star2 := exec.Agg{Kind: exec.AggCountStar, Col: 9, Name: "cnt"}
	if AggSignature([]exec.Agg{star}) != AggSignature([]exec.Agg{star2}) {
		t.Fatal("COUNT(*) signature must ignore the source column")
	}
	sum := exec.Agg{Kind: exec.AggSum, Col: 3, Name: "s"}
	sumOther := exec.Agg{Kind: exec.AggSum, Col: 4, Name: "s"}
	if AggSignature([]exec.Agg{sum}) == AggSignature([]exec.Agg{sumOther}) {
		t.Fatal("SUM signature must distinguish source columns")
	}
	if AggSignature([]exec.Agg{star, sum}) == AggSignature([]exec.Agg{sum, star}) {
		t.Fatal("signature must be order-sensitive")
	}
}

func TestRollupable(t *testing.T) {
	if !Rollupable([]exec.Agg{exec.CountStar(), {Kind: exec.AggSum, Col: 1, Name: "s"}}) {
		t.Fatal("COUNT(*)+SUM should be rollupable")
	}
	if Rollupable([]exec.Agg{{Kind: exec.AggAvg, Col: 1, Name: "a"}}) {
		t.Fatal("AVG must not be rollupable")
	}
}

func TestExactHit(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	tbl := testTable("t1", 10)
	key := KeyOf("base", 1, 0, colset.Of(0), countStar())
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Offer(key, countStar(), tbl, 100) {
		t.Fatal("offer rejected with ample budget")
	}
	got, ok := c.Get(key)
	if !ok || got != tbl {
		t.Fatalf("Get = %v, %v; want the offered table", got, ok)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 0 || st.Admissions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != tbl.MemSize() {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, tbl.MemSize())
	}
	// A different version is a different key.
	if _, ok := c.Get(KeyOf("base", 2, 0, colset.Of(0), countStar())); ok {
		t.Fatal("hit across table versions")
	}
}

func TestOfferRejectsOversizeAndDuplicates(t *testing.T) {
	tbl := testTable("t1", 100)
	tbl.RowImage()
	c := New(Config{MaxBytes: tbl.MemSize() - 1})
	key := KeyOf("base", 1, 0, colset.Of(0), countStar())
	if c.Offer(key, countStar(), tbl, 100) {
		t.Fatal("admitted a table larger than the whole budget")
	}
	c = New(Config{MaxBytes: 1 << 20})
	if !c.Offer(key, countStar(), tbl, 100) {
		t.Fatal("first offer rejected")
	}
	if c.Offer(key, countStar(), testTable("t2", 100), 100) {
		t.Fatal("duplicate key admitted twice")
	}
}

func TestEvictionIsBenefitPerByteOrdered(t *testing.T) {
	size := entrySize(50)
	c := New(Config{MaxBytes: 2 * size})
	keyOf := func(i int) Key { return KeyOf("base", 1, 0, colset.Of(i), countStar()) }
	if !c.Offer(keyOf(0), countStar(), testTable("a", 50), 10) {
		t.Fatal("offer a")
	}
	if !c.Offer(keyOf(1), countStar(), testTable("b", 50), 20) {
		t.Fatal("offer b")
	}
	// Higher-benefit candidate evicts the lowest-scored entry (a).
	if !c.Offer(keyOf(2), countStar(), testTable("c", 50), 30) {
		t.Fatal("offer c rejected; should evict a")
	}
	if _, ok := c.Get(keyOf(0)); ok {
		t.Fatal("lowest-score entry survived eviction")
	}
	if _, ok := c.Get(keyOf(1)); !ok {
		t.Fatal("higher-score entry was evicted")
	}
	// A candidate scoring below every resident entry is rejected, not admitted
	// by evicting better entries.
	if c.Offer(keyOf(3), countStar(), testTable("d", 50), 1) {
		t.Fatal("low-benefit candidate displaced better entries")
	}
	st := c.Snapshot()
	if st.Evictions != 1 || st.Rejections == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDemandWeightsAdmission(t *testing.T) {
	size := entrySize(50)
	c := New(Config{MaxBytes: 2 * size})
	hot := KeyOf("base", 1, 0, colset.Of(0), countStar())
	cold1 := KeyOf("base", 1, 0, colset.Of(1), countStar())
	cold2 := KeyOf("base", 1, 0, colset.Of(2), countStar())
	c.Offer(cold1, countStar(), testTable("c1", 50), 10)
	c.Offer(cold2, countStar(), testTable("c2", 50), 10)
	// Three unanswered requests for hot: its demand weight amortizes the same
	// benefit over observed frequency, beating the cold entries.
	for i := 0; i < 3; i++ {
		c.Get(hot)
	}
	if !c.Offer(hot, countStar(), testTable("h", 50), 10) {
		t.Fatal("demanded key lost admission to equal-benefit cold entries")
	}
	if _, ok := c.Get(hot); !ok {
		t.Fatal("hot entry missing after admission")
	}
}

func TestAncestors(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	aggs := []exec.Agg{exec.CountStar(), {Kind: exec.AggSum, Col: 1, Name: "s"}}
	super := colset.Of(0, 1, 2)
	key := KeyOf("base", 1, 0, super, aggs)
	tb := table.New("anc", []table.ColumnDef{
		{Name: "a", Typ: table.TInt64}, {Name: "b", Typ: table.TInt64},
		{Name: "c", Typ: table.TInt64}, {Name: "cnt", Typ: table.TInt64},
		{Name: "s", Typ: table.TInt64},
	})
	tb.AppendRow(table.Int(1), table.Int(2), table.Int(3), table.Int(4), table.Int(5))
	if !c.Offer(key, aggs, tb, 100) {
		t.Fatal("offer")
	}

	got := c.Ancestors("base", 1, 0, colset.Of(0, 2), countStar())
	if len(got) != 1 || got[0].Set != super || got[0].Table != tb {
		t.Fatalf("Ancestors = %+v", got)
	}
	if len(c.Ancestors("base", 1, 0, colset.Of(0, 3), countStar())) != 0 {
		t.Fatal("non-subset query matched an ancestor")
	}
	if len(c.Ancestors("base", 2, 0, colset.Of(0), countStar())) != 0 {
		t.Fatal("stale version matched an ancestor")
	}
	if len(c.Ancestors("other", 1, 0, colset.Of(0), countStar())) != 0 {
		t.Fatal("wrong table matched an ancestor")
	}
	if len(c.Ancestors("base", 1, 0, colset.Of(0), []exec.Agg{{Kind: exec.AggMin, Col: 2, Name: "m"}})) != 0 {
		t.Fatal("uncovered aggregate matched an ancestor")
	}
	if len(c.Ancestors("base", 1, 0, colset.Of(0), []exec.Agg{{Kind: exec.AggAvg, Col: 1, Name: "v"}})) != 0 {
		t.Fatal("AVG query must never take the ancestor path")
	}
	c.TouchAncestor(got[0].Key)
	if st := c.Snapshot(); st.AncestorHits != 1 {
		t.Fatalf("AncestorHits = %d", st.AncestorHits)
	}
}

func TestInvalidateBelow(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Offer(KeyOf("base", 1, 0, colset.Of(0), countStar()), countStar(), testTable("a", 10), 10)
	c.Offer(KeyOf("base", 2, 0, colset.Of(1), countStar()), countStar(), testTable("b", 10), 10)
	c.Offer(KeyOf("other", 1, 0, colset.Of(0), countStar()), countStar(), testTable("c", 10), 10)
	if n := c.InvalidateBelow("base", 2, 0); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after invalidation", c.Len())
	}
	c.DropTable("base")
	if c.Len() != 1 {
		t.Fatalf("Len = %d after DropTable", c.Len())
	}
	if st := c.Snapshot(); st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d", st.Invalidations)
	}
}

// TestInvalidateBelowMatchesAWalk: over a seeded random sequence of Offer,
// Refresh, Invalidate, ShrinkTo, quarantine and DropTable, the per-epoch
// counts equal a recount of the resident entries after every step, and
// InvalidateBelow removes exactly as many entries as a brute-force walk
// counts stale — including 0 on the read-locked fast path.
func TestInvalidateBelowMatchesAWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	c := New(Config{MaxBytes: 12 * entrySize(20)})
	tables := []string{"a", "b"}
	randKey := func() Key {
		return KeyOf(tables[rng.Intn(2)], uint64(rng.Intn(3)), uint64(rng.Intn(3)), colset.Of(rng.Intn(4)), countStar())
	}
	// pick returns a resident key (in a seeded, map-order-free way) or, when
	// none is resident or one time in four, a random one.
	pick := func() Key {
		c.mu.RLock()
		keys := make([]Key, 0, len(c.entries))
		for k := range c.entries {
			keys = append(keys, k)
		}
		c.mu.RUnlock()
		if len(keys) == 0 || rng.Intn(4) == 0 {
			return randKey()
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		return keys[rng.Intn(len(keys))]
	}
	stale := func(tableName string, version, delta uint64) int {
		c.mu.RLock()
		defer c.mu.RUnlock()
		n := 0
		for k := range c.entries {
			if k.Table == tableName && (k.Version != version || k.Delta != delta) {
				n++
			}
		}
		return n
	}
	sweeps := map[bool]int{}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(8) {
		case 0, 1:
			c.Offer(randKey(), countStar(), testTable("t", 10+rng.Intn(11)), float64(rng.Intn(1000)))
		case 2:
			old := pick()
			next := old
			next.Version, next.Delta = uint64(rng.Intn(3)), uint64(rng.Intn(3))
			c.Refresh(old, next, testTable("t", 10+rng.Intn(11)))
		case 3:
			c.Invalidate(pick())
		case 4:
			c.ShrinkTo(rng.Int63n(c.Bytes() + 1))
		case 5:
			k := pick()
			c.mu.RLock()
			e := c.entries[k]
			c.mu.RUnlock()
			if e != nil && rng.Intn(2) == 0 {
				c.quarantine(k, e) // a checksum mismatch found by a lookup
			} else {
				c.ForceQuarantine(k)
			}
		case 6:
			if rng.Intn(4) == 0 {
				c.DropTable(tables[rng.Intn(2)])
			}
		case 7:
			k := randKey()
			want := stale(k.Table, k.Version, k.Delta)
			if got := c.InvalidateBelow(k.Table, k.Version, k.Delta); got != want {
				t.Fatalf("step %d: InvalidateBelow(%s, %d, %d) = %d, a walk counts %d stale", step, k.Table, k.Version, k.Delta, got, want)
			}
			sweeps[want > 0]++
		}
		recount := map[string]map[epoch]int{}
		c.mu.RLock()
		for k := range c.entries {
			if recount[k.Table] == nil {
				recount[k.Table] = map[epoch]int{}
			}
			recount[k.Table][epoch{k.Version, k.Delta}]++
		}
		ok := reflect.DeepEqual(recount, c.epochs)
		c.mu.RUnlock()
		if !ok {
			t.Fatalf("step %d: epoch counts %v, a recount gives %v", step, c.epochs, recount)
		}
	}
	if sweeps[false] == 0 || sweeps[true] == 0 {
		t.Fatalf("sweeps with nothing stale: %d, with stale entries: %d; the sequence must exercise both", sweeps[false], sweeps[true])
	}
}

func TestShrinkTo(t *testing.T) {
	size := entrySize(50)
	c := New(Config{MaxBytes: 4 * size})
	for i := 0; i < 4; i++ {
		c.Offer(KeyOf("base", 1, 0, colset.Of(i), countStar()), countStar(),
			testTable(fmt.Sprintf("t%d", i), 50), float64(10*(i+1)))
	}
	freed := c.ShrinkTo(2 * size)
	if freed != 2*size {
		t.Fatalf("freed %d bytes, want %d", freed, 2*size)
	}
	if c.Bytes() > 2*size {
		t.Fatalf("Bytes = %d over shrink target", c.Bytes())
	}
	// The two lowest-benefit entries went first.
	for i, wantLive := range []bool{false, false, true, true} {
		_, ok := c.Get(KeyOf("base", 1, 0, colset.Of(i), countStar()))
		if ok != wantLive {
			t.Fatalf("entry %d live = %v, want %v", i, ok, wantLive)
		}
	}
	if c.ShrinkTo(0); c.Len() != 0 {
		t.Fatal("ShrinkTo(0) left entries")
	}
}

func TestDoCollapsesStampede(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	var computes atomic.Int64
	computing := make(chan struct{})
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	shareds := make([]bool, n)
	run := func(i int) {
		defer wg.Done()
		v, err, shared := c.Do("k", func() (any, error) {
			if computes.Add(1) == 1 {
				close(computing)
			}
			<-release // hold the flight open so the other goroutines join it
			return "value", nil
		})
		if err != nil {
			t.Errorf("Do error: %v", err)
		}
		results[i], shareds[i] = v, shared
	}
	wg.Add(1)
	go run(0)
	<-computing // the flight is registered; everyone below must share it
	for i := 1; i < n; i++ {
		wg.Add(1)
		go run(i)
	}
	// Let the followers reach the in-flight call before the leader finishes
	// (the flight stays registered until release closes, so a follower only
	// needs to have called Do by then).
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	leaders := 0
	for i := range results {
		if results[i] != "value" {
			t.Fatalf("result %d = %v", i, results[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	st := c.Snapshot()
	if st.FlightLeads != 1 || st.FlightShared != n-1 {
		t.Fatalf("flight stats = %+v", st)
	}
}

// TestDoPanicPropagatesToLeaderAndWaiters injects a leader panic and checks
// the failure semantics: the panic is recovered into a typed *exec.ExecError
// that both the leader and every waiter receive exactly once — nobody hangs,
// nobody sees a nil value with a nil error, and the process survives.
func TestDoPanicPropagatesToLeaderAndWaiters(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	entered := make(chan struct{})
	finish := make(chan struct{})
	var leaderVal, followerVal any
	var leaderErr, followerErr error
	var followerShared bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leaderVal, leaderErr, _ = c.Do("k", func() (any, error) {
			close(entered)
			<-finish
			panic("boom")
		})
	}()
	go func() {
		defer wg.Done()
		<-entered
		followerVal, followerErr, followerShared = c.Do("k", func() (any, error) { return "late", nil })
	}()
	// Give the follower a moment to join the in-flight call, then let the
	// leader panic.
	<-entered
	close(finish)
	wg.Wait()
	var ee *exec.ExecError
	if leaderVal != nil || !errors.As(leaderErr, &ee) {
		t.Fatalf("leader got (%v, %v), want (nil, *exec.ExecError)", leaderVal, leaderErr)
	}
	if followerShared {
		// The follower joined the panicking flight: same typed error, no value.
		if followerVal != nil || !errors.As(followerErr, &ee) {
			t.Fatalf("waiter got (%v, %v), want (nil, *exec.ExecError)", followerVal, followerErr)
		}
	} else if followerVal != "late" || followerErr != nil {
		// The follower arrived after cleanup and computed fresh.
		t.Fatalf("post-cleanup follower got (%v, %v)", followerVal, followerErr)
	}
	// The failed flight must not leave a registered call behind: a fresh Do
	// computes immediately.
	v, err, _ := c.Do("k", func() (any, error) { return "fresh", nil })
	if v != "fresh" || err != nil {
		t.Fatalf("Do after failed flight = (%v, %v)", v, err)
	}
}

// TestChecksumDetectsCorruption corrupts a cached entry's bytes in place and
// checks the next exact hit refuses to serve it: miss, eviction, quarantine
// (no re-admission), and a bumped Corruptions counter.
func TestChecksumDetectsCorruption(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	key := KeyOf("t", 1, 0, colset.Of(0), countStar())
	tb := testTable("t_a", 32)
	if !c.Offer(key, countStar(), tb, 100) {
		t.Fatal("offer rejected")
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("clean entry missed")
	}
	// Corrupt the cached row image through the shared table — the failure
	// mode a stray write through a shared slice produces.
	img, _ := tb.RowImage()
	img[0] ^= 0xff

	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry was served")
	}
	st := c.Snapshot()
	if st.Corruptions != 1 || st.Entries != 0 {
		t.Fatalf("stats after corruption = %+v, want 1 corruption, 0 entries", st)
	}
	// A second lookup is a plain miss, counted once.
	if _, ok := c.Get(key); ok {
		t.Fatal("quarantined key hit")
	}
	if st := c.Snapshot(); st.Corruptions != 1 {
		t.Fatalf("corruption double-counted: %+v", st)
	}
	// The quarantined key can never be re-admitted, even with pristine bytes.
	if c.Offer(key, countStar(), testTable("t_a", 32), 100) {
		t.Fatal("quarantined key re-admitted")
	}
	// Other keys are unaffected.
	other := KeyOf("t", 1, 0, colset.Of(1), countStar())
	if !c.Offer(other, countStar(), testTable("t_b", 32), 100) {
		t.Fatal("unrelated key rejected after quarantine")
	}
}

// groupCounts runs the real COUNT(*) kernel over a one-column table holding
// value k counts[k] times, so the result has one group per entry of counts.
func groupCounts(counts ...int) *table.Table {
	tb := table.New("src", []table.ColumnDef{{Name: "k", Typ: table.TInt64}})
	for k, n := range counts {
		for i := 0; i < n; i++ {
			tb.AppendRow(table.Int(int64(k)))
		}
	}
	return exec.GroupByHash(tb, []int{0}, countStar(), "g")
}

// TestChecksumSeesAggregateValues pins that the fingerprint covers aggregate
// values, not just their equality pattern: results whose counts differ but
// repeat alike — (5, 3) vs (6, 3), and all-equal (1, 1) vs (2, 2) — must
// hash apart, or the bench oracle, verify-on-hit and durable rewarm would
// all accept a wrong count.
func TestChecksumSeesAggregateValues(t *testing.T) {
	for _, tc := range []struct{ a, b []int }{
		{[]int{5, 3}, []int{6, 3}},
		{[]int{1, 1}, []int{2, 2}},
	} {
		a, b := groupCounts(tc.a...), groupCounts(tc.b...)
		if ChecksumTable(a) == ChecksumTable(b) {
			t.Errorf("counts %v and %v have equal checksums", tc.a, tc.b)
		}
		if ChecksumTable(a) != ChecksumTable(groupCounts(tc.a...)) {
			t.Errorf("counts %v: checksum not deterministic", tc.a)
		}
	}
}

// TestChecksumDetectsCorruptedCount is TestChecksumDetectsCorruption for an
// aggregate value: a count changed in place, codes untouched, is never
// served.
func TestChecksumDetectsCorruptedCount(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	key := KeyOf("src", 1, 0, colset.Of(0), countStar())
	res := groupCounts(5, 3)
	if !c.Offer(key, countStar(), res, 100) {
		t.Fatal("offer rejected")
	}
	ints, _ := res.Col(1).NumericDict()
	ints[0]++
	if _, ok := c.Get(key); ok {
		t.Fatal("entry with a corrupted count was served")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("nil cache hit")
	}
	if c.Offer(Key{}, countStar(), testTable("t", 1), 1) {
		t.Fatal("nil cache admitted")
	}
	if c.Ancestors("x", 1, 0, colset.Of(0), countStar()) != nil {
		t.Fatal("nil cache ancestors")
	}
	c.NoteMiss()
	c.TouchAncestor(Key{})
	c.ShrinkTo(0)
	c.InvalidateBelow("x", 1, 0)
	c.DropTable("x")
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("nil cache residency")
	}
	if (c.Snapshot() != Stats{}) {
		t.Fatal("nil cache stats")
	}
}
