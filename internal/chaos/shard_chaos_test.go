package chaos

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gbmqo"
)

// shardSites are the four failpoints the sharded scatter-gather path fires.
var shardSites = []string{"shard.scatter", "shard.exec", "shard.merge", "shard.hedge"}

// runShardSeed is one sharded chaos trial: a 4-shard DB with hedging and
// retries armed, seeded faults over the shard failpoints only, three rounds
// of concurrent submissions. Invariants are the harness's usual three, plus:
// results that survive must be byte-identical to the unsharded reference —
// a lost hedge race or a double-merged partial would show up as a wrong
// count, not an error.
func runShardSeed(t *testing.T, seed int64, allowPartial bool) {
	setup(t)
	queries := chaosQueries()
	baseline := runtime.NumGoroutine()

	db := gbmqo.Open(nil)
	db.Register(baseTbl)
	if err := db.EnableSharding(gbmqo.ShardOptions{
		Shards:       4,
		MaxAttempts:  3,
		RetryBackoff: 100 * time.Microsecond,
		HedgeAfter:   2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	db.StartBatching(gbmqo.BatchOptions{
		Exec: gbmqo.QueryOptions{
			SharedScan:   true,
			Parallel:     true,
			MaxAttempts:  3,
			RetryBackoff: 100 * time.Microsecond,
			AllowPartial: allowPartial,
		},
	})

	sched := NewSchedule(seed, shardSites, 4, 8)
	in := Install(sched)
	submitted := 0

	submitRound := func(mustSucceed bool) {
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q gbmqo.GroupQuery) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				res, info, err := db.Submit(ctx, "lineitem", q)
				if err != nil {
					if mustSucceed {
						t.Errorf("%s: query %d failed after faults disarmed: %v", sched, i, err)
					}
					return
				}
				if info.Partial {
					// A partial is only legal when the caller opted in, and it
					// must say how many shards it lost.
					if !allowPartial || info.ShardsFailed == 0 {
						t.Errorf("%s: query %d: partial=%v shards_failed=%d (allowPartial=%v)",
							sched, i, info.Partial, info.ShardsFailed, allowPartial)
					}
					return
				}
				if got := tableBytes(res); !bytes.Equal(got, reference[i]) {
					t.Errorf("%s: query %d survived but differs from reference (%d vs %d bytes)",
						sched, i, len(got), len(reference[i]))
				}
			}(i, q)
		}
		wg.Wait()
		submitted += len(queries)
	}

	for round := 0; round < 3; round++ {
		submitRound(false)
	}
	in.Uninstall()
	submitRound(true)
	t.Logf("%s: struck %d (scatter=%d exec=%d merge=%d hedge=%d)", sched, in.Struck(),
		in.Fired("shard.scatter"), in.Fired("shard.exec"), in.Fired("shard.merge"), in.Fired("shard.hedge"))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err := db.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("%s: scheduler never drained: %v", sched, err)
	}
	if st, _ := db.BatchStats(); st.QueueLen != 0 || st.Submitted != int64(submitted) {
		t.Fatalf("%s: stats %+v after Drain, want nothing in flight and %d submitted", sched, st, submitted)
	}
	db.StopBatching()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: baseline %d, now %d", sched, baseline, n)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardChaosSeeds runs the shard-failpoint battery in strict mode: every
// fault must end in a clean error or a byte-identical result.
func TestShardChaosSeeds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runShardSeed(t, seed, false) })
	}
}

// TestShardChaosSeedsPartial repeats the battery with AllowPartial: outcomes
// widen to clean-error / byte-identical / attributed-partial, and nothing
// else.
func TestShardChaosSeedsPartial(t *testing.T) {
	for seed := int64(50); seed <= 55; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runShardSeed(t, seed, true) })
	}
}
