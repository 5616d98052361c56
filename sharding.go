package gbmqo

import (
	"time"

	"gbmqo/internal/engine"
	"gbmqo/internal/fault"
	"gbmqo/internal/shard"
)

// ShardError is the typed failure a sharded query returns when a shard fails
// and the query did not opt into partial results (QueryOptions.AllowPartial):
// it names the failing shard and wraps the shard's final error (an open
// breaker's *BreakerOpenError, a transient *ExecError that exhausted its
// retries, or a deadline). Match with errors.As.
type ShardError = shard.Error

// ShardFailure attributes one shard's absence from a partial result (see
// ExecReport.ShardsFailed).
type ShardFailure = engine.ShardFailure

// ShardOptions tunes sharded scatter-gather execution (see EnableSharding).
// Zero values select the documented defaults.
type ShardOptions struct {
	// Shards is the number of hash shards registered tables are partitioned
	// into (default 4).
	Shards int
	// Keys optionally names the column to hash-partition on, per table;
	// tables absent from the map are partitioned by row-index hash (perfectly
	// balanced regardless of skew). Naming an unknown table or column is an
	// error.
	Keys map[string]string
	// MaxAttempts is each shard's attempt budget per query, including the
	// first try (default 2). Shard retries descend the same degradation
	// ladder as request-scope retries.
	MaxAttempts int
	// RetryBackoff is the base sleep before a shard retry, doubled per
	// attempt with jitter (default 1ms, capped at 100ms).
	RetryBackoff time.Duration
	// HedgeAfter, when positive, launches a hedged duplicate request against
	// any shard still running after this long; the first result wins and the
	// loser is cancelled and discarded. 0 disables hedging.
	HedgeAfter time.Duration
	// Breaker configures the per-shard circuit breakers (independent of
	// EnableBreakers' per-table ones; defaults as in BreakerConfig).
	Breaker BreakerConfig
}

// EnableSharding partitions every currently registered table into
// ShardOptions.Shards hash shards and routes subsequent queries through a
// fault-isolated scatter-gather coordinator: the full GB-MQO plan runs per
// shard and the partials are merged back byte-identical to unsharded
// execution. Each shard sits behind its own circuit breaker, deadline budget
// and bounded retry loop; stragglers can be hedged; queries opting in via
// QueryOptions.AllowPartial survive shard loss with explicit attribution.
//
// Sharding snapshots the catalog: tables registered or replaced afterwards
// are served unsharded (detected by catalog version), as are ephemeral
// derived tables (WHERE clauses) and request shapes the merge cannot
// reproduce byte-identically. Call EnableSharding again after schema changes
// to re-partition — like registration itself, this is not synchronized with
// running queries.
func (db *DB) EnableSharding(o ShardOptions) error {
	co, err := shard.New(db.eng.Catalog(), shard.Options{
		Shards:     o.Shards,
		Keys:       o.Keys,
		Retry:      fault.Policy{MaxAttempts: o.MaxAttempts, BaseBackoff: o.RetryBackoff},
		HedgeAfter: o.HedgeAfter,
		Breaker:    o.Breaker,
	})
	if err != nil {
		return err
	}
	db.shardMu.Lock()
	db.shards = co
	db.shardMu.Unlock()
	db.eng.SetShardRouter(co.Route)
	return nil
}

// DisableSharding removes the scatter-gather coordinator; subsequent queries
// run unsharded.
func (db *DB) DisableSharding() {
	db.eng.SetShardRouter(nil)
	db.shardMu.Lock()
	db.shards = nil
	db.shardMu.Unlock()
}

// Sharding reports the active shard count (0 when sharding is disabled).
func (db *DB) Sharding() int {
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	if db.shards == nil {
		return 0
	}
	return db.shards.Shards()
}

// shardCoordinator returns the active coordinator, nil when disabled.
func (db *DB) shardCoordinator() *shard.Coordinator {
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	return db.shards
}
