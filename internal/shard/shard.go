// Package shard implements fault-isolated sharded scatter-gather execution:
// registered tables are hash-partitioned into N shards, each shard runs the
// full GB-MQO plan over its slice behind a private engine, and a hardened
// coordinator merges the per-shard partials back into results byte-identical
// to unsharded execution (see merge.go for the ordering technique).
//
// The Shard interface is the fault-domain boundary. Today every shard is
// in-process (a private engine over a partitioned copy of the catalog), but
// the coordinator only ever talks to shards through context-carrying Exec
// calls, so a process- or network-backed shard slots in without touching the
// gather loop. Robustness machinery — per-shard deadline budgets, bounded
// retries descending the engine's degradation ladder, per-shard circuit
// breakers, hedged duplicate requests, and opt-in partial results — lives in
// coordinator.go.
package shard

import (
	"context"
	"fmt"
	"strings"

	"gbmqo/internal/catalog"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/table"
)

// Hidden schema names the sharding layer reserves. Tables or aggregates that
// already use them cannot be sharded (Route declines; execution falls back to
// the unsharded engine).
const (
	// RowColumn is the hidden Int64 column appended to every shard partition,
	// holding each row's global row index in the unpartitioned base table.
	RowColumn = "__shard_row"
	// FirstAgg is the hidden MIN(RowColumn) aggregate added to every grouping
	// set, carrying each group's global first-appearance row through any plan
	// shape (MIN rolls up losslessly through intermediates).
	FirstAgg = "__shard_first"
)

// Shard is one fault domain of a sharded table set. Implementations must be
// safe for concurrent Exec calls and must honor ctx cancellation.
type Shard interface {
	// Exec runs one engine request against this shard's slice of the data.
	// The request's grouping sets and aggregates use base-table ordinals; the
	// shard's partition tables carry the same schema plus the hidden
	// RowColumn appended last.
	Exec(ctx context.Context, req engine.Request) (*engine.RunResult, error)
	// Rows reports how many base rows of the named table this shard holds.
	Rows(tableName string) int
}

// localShard is an in-process shard: a private engine whose catalog holds the
// hash-partitioned slice of every shardable table. The engine carries no
// cache, breakers, observer or router of its own — the coordinator owns all
// resilience, so a shard run is a plain single-attempt execution.
type localShard struct {
	eng  *engine.Engine
	rows map[string]int
}

// Exec implements Shard. The "shard.exec" failpoint fires once per shard
// execution (hedged duplicates included); an armed strike panics here and is
// contained by the coordinator's per-attempt recover.
func (s *localShard) Exec(ctx context.Context, req engine.Request) (*engine.RunResult, error) {
	exec.Testing.Fire("shard.exec")
	req.Context = ctx
	return s.eng.Run(req)
}

// Rows implements Shard.
func (s *localShard) Rows(tableName string) int { return s.rows[tableName] }

// tableInfo is the coordinator's per-table sharding record.
type tableInfo struct {
	// version and delta are the catalog epoch the partitions currently
	// reflect: version from the registration the partitions were built from,
	// delta advanced by NoteAppend as streaming appends are propagated into
	// the partitions. An epoch mismatch at gather time means the partitions
	// are stale and the query stays unsharded.
	version uint64
	delta   uint64
	// rowOrd is the hidden RowColumn's ordinal in the partition tables
	// (the original column count).
	rowOrd int
	// keyOrd is the hash-key column ordinal (-1 = partition by row index);
	// NoteAppend routes delta rows with the same hash the build used.
	keyOrd int
	// perShard holds each shard's row count; total their sum.
	perShard []int
	total    int
}

// buildShards partitions every shardable table in cat into n local shards and
// returns them with the per-table records. Tables with the reserved "__"
// prefix (ephemeral derived tables), tables already carrying a hidden column
// name, and tables wider than colset supports after the hidden column are
// skipped — queries against them simply stay unsharded.
func buildShards(cat *catalog.Catalog, n int, keys map[string]string) ([]Shard, map[string]tableInfo, error) {
	engines := make([]*engine.Engine, n)
	rows := make([]map[string]int, n)
	for i := range engines {
		engines[i] = engine.New(nil)
		rows[i] = make(map[string]int)
	}
	info := make(map[string]tableInfo)
	for _, name := range cat.TableNames() {
		if strings.HasPrefix(name, "__") {
			continue
		}
		t := cat.MustTable(name)
		if t.ColIndex(RowColumn) >= 0 || t.NumCols() >= 64 {
			continue
		}
		keyOrd := -1
		if col, ok := keys[name]; ok {
			if keyOrd = t.ColIndex(col); keyOrd < 0 {
				return nil, nil, fmt.Errorf("shard: table %q has no column %q to hash on", name, col)
			}
		}
		ep := cat.Epoch(name)
		ti := tableInfo{version: ep.Version, delta: ep.Delta, rowOrd: t.NumCols(), keyOrd: keyOrd,
			perShard: make([]int, n), total: t.NumRows()}
		for i, idx := range partitionIdx(t, n, keyOrd) {
			engines[i].Catalog().Register(buildPartition(t, idx))
			rows[i][name] = len(idx)
			ti.perShard[i] = len(idx)
		}
		info[name] = ti
	}
	for tbl := range keys {
		if _, ok := info[tbl]; !ok {
			return nil, nil, fmt.Errorf("shard: hash key given for unknown or unshardable table %q", tbl)
		}
	}
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = &localShard{eng: engines[i], rows: rows[i]}
	}
	return shards, info, nil
}

// partitionIdx assigns every row of t to one of n shards and returns the
// per-shard row-index lists, each ascending (so partitions preserve relative
// row order). With a key column the row's dictionary code is hashed — equal
// key values land on the same shard, the property a future co-partitioned
// join would need; without one the row index is hashed, which balances
// perfectly regardless of data skew.
func partitionIdx(t *table.Table, n, keyOrd int) [][]int32 {
	buckets := make([][]int32, n)
	nrows := t.NumRows()
	for i := range buckets {
		buckets[i] = make([]int32, 0, nrows/n+1)
	}
	if keyOrd >= 0 {
		codes := t.Col(keyOrd).View()
		for r := range nrows {
			b := mix(uint64(codes.At(r))) % uint64(n)
			buckets[b] = append(buckets[b], int32(r))
		}
		return buckets
	}
	for r := 0; r < nrows; r++ {
		b := mix(uint64(r)) % uint64(n)
		buckets[b] = append(buckets[b], int32(r))
	}
	return buckets
}

// mix is the splitmix64 finalizer — enough avalanche that consecutive row
// indexes or small dictionary codes spread uniformly across shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildPartition gathers t's rows at idx into a shard table, sharing every
// column dictionary with the base (so group-key codes stay comparable across
// shards and with unsharded output), and appends the hidden RowColumn holding
// each row's global index.
func buildPartition(t *table.Table, idx []int32) *table.Table {
	b := table.NewBuilder(t.Name(), len(idx), t.NumCols()+1)
	for j := 0; j < t.NumCols(); j++ {
		c, v := b.Like(t.Col(j), t.Col(j).Name()), t.Col(j).View()
		for i, r := range idx {
			b.Set(i, c, v.At(int(r)))
		}
	}
	rc := b.Add(table.ColumnDef{Name: RowColumn, Typ: table.TInt64})
	for i, r := range idx {
		b.SetValue(i, rc, table.Int(int64(r)))
	}
	return b.Table()
}
