package gbmqo

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
)

// flightDoor is one query entry point, asked for the same three grouping
// sets each time, returning the result tables in a fixed order.
type flightDoor struct {
	name string
	ask  func(db *DB, ctx context.Context) ([]*Table, error)
}

var flightCols = [][]string{{"l_returnflag"}, {"l_linestatus"}, {"l_returnflag", "l_linestatus"}}

const flightSQL = `SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem
	GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), (l_returnflag, l_linestatus))`

// reportTables lists a report's results in flightCols order.
func reportTables(db *DB, rep *ExecReport) ([]*Table, error) {
	li, _ := db.Table("lineitem")
	out := make([]*Table, len(flightCols))
	for i, cols := range flightCols {
		ords, err := db.resolveCols(li, cols)
		if err != nil {
			return nil, err
		}
		if out[i] = rep.Results[colset.Of(ords...)]; out[i] == nil {
			return nil, fmt.Errorf("no result for %v", cols)
		}
	}
	return out, nil
}

func flightDoors() []flightDoor {
	queries := make([]GroupQuery, len(flightCols))
	for i, cols := range flightCols {
		queries[i] = GroupQuery{Cols: cols}
	}
	return []flightDoor{
		{"Execute", func(db *DB, ctx context.Context) ([]*Table, error) {
			_, rep, err := db.Execute("lineitem", flightCols, QueryOptions{Context: ctx})
			if err != nil {
				return nil, err
			}
			return reportTables(db, rep)
		}},
		{"ExecuteQueries", func(db *DB, ctx context.Context) ([]*Table, error) {
			_, rep, err := db.ExecuteQueries("lineitem", queries, QueryOptions{Context: ctx})
			if err != nil {
				return nil, err
			}
			return reportTables(db, rep)
		}},
		{"QueryWith", func(db *DB, ctx context.Context) ([]*Table, error) {
			res, err := db.QueryWith(flightSQL, QueryOptions{Context: ctx})
			if err != nil {
				return nil, err
			}
			return []*Table{res.Table}, nil
		}},
		{"SubmitPage", func(db *DB, ctx context.Context) ([]*Table, error) {
			var out []*Table
			for _, a := range db.SubmitPage(ctx, "lineitem", queries) {
				if a.Err != nil {
					return nil, a.Err
				}
				out = append(out, a.Table)
			}
			return out, nil
		}},
		{"SubmitSQL", func(db *DB, ctx context.Context) ([]*Table, error) {
			res, err := db.SubmitSQL(ctx, flightSQL)
			if err != nil {
				return nil, err
			}
			return []*Table{res}, nil
		}},
	}
}

// parkFirstStep arms the engine.step failpoint so the first step to reach
// it blocks until the returned release runs; parked closes when it does.
// Every later step passes.
func parkFirstStep(t *testing.T) (parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	exec.Testing.SetFailPoint(func(site string) {
		if site == "engine.step" && first.CompareAndSwap(false, true) {
			close(p)
			<-r
		}
	})
	var released atomic.Bool
	release = func() {
		if released.CompareAndSwap(false, true) {
			close(r)
		}
	}
	t.Cleanup(func() {
		release()
		exec.Testing.ClearFailPoint()
	})
	return p, release
}

// awaitFollower waits until a second request has recorded its cache misses
// — the last thing it does before joining the leader's flight — and then a
// little longer, so it waits inside the flight.
func awaitFollower(t *testing.T, db *DB, misses int64) {
	t.Helper()
	for i := 0; ; i++ {
		if st, _ := db.CacheStats(); st.Misses >= misses {
			break
		}
		if i > 5000 {
			t.Fatal("the follower never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// TestFlightFollowerHonoursItsDeadline: on every door, a request that
// follows an identical request parked mid-run returns its own
// context.DeadlineExceeded close to its deadline instead of waiting for the
// leader.
func TestFlightFollowerHonoursItsDeadline(t *testing.T) {
	for _, door := range flightDoors() {
		t.Run(door.name, func(t *testing.T) {
			db := openCachedLineitem(t, 4000)
			defer db.StopBatching()
			parked, release := parkFirstStep(t)
			leader := make(chan error, 1)
			go func() {
				_, err := door.ask(db, context.Background())
				leader <- err
			}()
			<-parked
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			start := time.Now()
			follower := make(chan error, 1)
			go func() {
				_, err := door.ask(db, ctx)
				follower <- err
			}()
			var err error
			select {
			case err = <-follower:
			case <-time.After(time.Second):
				release()
				err = <-follower
			}
			waited := time.Since(start)
			release()
			if lerr := <-leader; lerr != nil {
				t.Fatalf("leader: %v", lerr)
			}
			if !errors.Is(err, context.DeadlineExceeded) || waited > 200*time.Millisecond {
				t.Fatalf("follower returned %v after %v, want context.DeadlineExceeded within 200ms", err, waited)
			}
		})
	}
}

// TestFlightFollowerOutlivesCancelledLeader: on every door, when the leader
// of a flight is cancelled mid-run, a follower whose context is still live
// leads the computation again and gets the same tables an uncached DB
// computes.
func TestFlightFollowerOutlivesCancelledLeader(t *testing.T) {
	ref := openWithLineitem(t, 4000)
	defer ref.StopBatching()
	for _, door := range flightDoors() {
		t.Run(door.name, func(t *testing.T) {
			want, err := door.ask(ref, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			db := openCachedLineitem(t, 4000)
			defer db.StopBatching()
			parked, release := parkFirstStep(t)
			lctx, cancelLeader := context.WithCancel(context.Background())
			defer cancelLeader()
			leader := make(chan error, 1)
			go func() {
				_, err := door.ask(db, lctx)
				leader <- err
			}()
			<-parked
			st, _ := db.CacheStats()
			type answer struct {
				tables []*Table
				err    error
			}
			follower := make(chan answer, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				tables, err := door.ask(db, ctx)
				follower <- answer{tables, err}
			}()
			awaitFollower(t, db, 2*st.Misses)
			cancelLeader()
			release()
			if err := <-leader; !errors.Is(err, context.Canceled) {
				t.Fatalf("leader: %v, want context.Canceled", err)
			}
			got := <-follower
			if got.err != nil {
				t.Fatalf("follower with a live context: %v", got.err)
			}
			if len(got.tables) != len(want) {
				t.Fatalf("follower got %d tables, want %d", len(got.tables), len(want))
			}
			for i := range want {
				sameTable(t, fmt.Sprintf("%s table %d", door.name, i), got.tables[i], want[i])
			}
		})
	}
}
