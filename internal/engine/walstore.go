package engine

// WALStore is the durable Store: the sharded store with the
// append-only log in wal.go attached. Reads are the sharded store's
// unchanged path (0-alloc Get, O(limit) cursor List), and so are the
// mutators: store_sharded.go writes each one once, and with a log
// attached each also encodes its record before taking the shard lock
// and stages it inside the critical section that publishes the change.
// This file only opens, flushes and closes the log.
//
// Updates whose mutation is a pure lifecycle transition log a compact
// delta record (id + mutable fields) instead of a full snapshot.
// Every delta chain is bounded by walDeltaChainMax: the store counts
// consecutive deltas per ID (storeShard.deltaN, mutated only under the
// shard's write lock) and logs a fresh full record when the chain
// would grow past the bound, so replay work and torn-tail blast
// radius per op stay O(1).

import (
	"fmt"
	"log"
	"os"
	"time"

	"opdaemon/internal/core"
)

// WALConfig configures OpenWALStore. Zero values pick the defaults
// documented per field.
type WALConfig struct {
	// Dir is the log directory, created if absent. Required.
	Dir string
	// Sync is the fsync policy (default WALSyncGroup).
	Sync WALSyncMode
	// Deprecated: ignored; group commit is paced by fsync latency. Kept until perfbench stops setting it.
	GroupWindow time.Duration
	// SegmentBytes rotates the open segment once it exceeds this size
	// (default 16 MiB).
	SegmentBytes int64
	// MaxSegments is how many closed segments may accumulate before
	// the committer folds them into a snapshot (default 8).
	MaxSegments int
	// Shards is the in-memory index's shard count, with the same
	// semantics as NewShardedStore (default DefaultShardCount).
	Shards int
	// Clock returns the current time; overridable in tests.
	Clock func() time.Time
}

// withDefaults resolves the zero values.
func (cfg WALConfig) withDefaults() WALConfig {
	if cfg.Sync == "" {
		cfg.Sync = WALSyncGroup
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 16 << 20
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// sweepCompactThreshold is how many evictions one SweepTerminalBefore
// must produce before the store asks the WAL to compact: small steady
// sweeps ride along until segment-count compaction triggers, mass
// evictions reclaim replay time promptly.
const sweepCompactThreshold = 1024

// walDeltaChainMax bounds how many consecutive delta records one
// operation may accumulate before the next update logs a full
// snapshot again. Engine lifecycles log 2–3 updates per op, so the
// bound exists for pathological callers, not the steady state.
const walDeltaChainMax = 16

// WALStore is a persistent Store; see the file comment above and
// docs/persistence.md. Close must be called to flush staged records;
// use OpenWALStore to build one.
type WALStore struct{ *shardedStore }

// Compile-time interface checks: a Store the engine can use, and the
// durable extension Engine.Stats surfaces.
var (
	_ Store        = (*WALStore)(nil)
	_ durableStore = (*WALStore)(nil)
)

// OpenWALStore opens (or creates) the log directory, replays snapshot
// plus segment suffix into a fresh in-memory index — repairing a torn
// tail on the way — and starts the group-commit loop. The returned
// store is ready for traffic; the caller owns Close.
func OpenWALStore(cfg WALConfig) (*WALStore, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: WALConfig.Dir must be set")
	}
	if !cfg.Sync.Valid() {
		return nil, fmt.Errorf("wal: unknown sync mode %q (want %s, %s, or %s)",
			cfg.Sync, WALSyncAlways, WALSyncGroup, WALSyncNone)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", cfg.Dir, err)
	}
	state, layout, err := recoverWALState(cfg.Dir)
	if err != nil {
		return nil, err
	}
	w, err := newWAL(cfg, layout)
	if err != nil {
		return nil, err
	}
	s := &WALStore{newShardedStore(cfg.Shards)}
	if len(state) > 0 {
		ops := make([]*core.Operation, 0, len(state))
		for _, op := range state {
			ops = append(ops, op)
		}
		s.bulkLoad(ops)
	}
	s.log = w
	w.snapshotFn = s.dumpState
	w.start()
	return s, nil
}

// Close flushes staged records, stops the committer, and closes the
// open segment. The store must not be used afterwards.
func (s *WALStore) Close() error {
	return s.log.close()
}

// Flush forces a commit of everything staged so far and waits for it —
// a durability barrier for callers (and tests) that need one outside
// the per-mutation policy.
func (s *WALStore) Flush() error {
	return s.log.flush()
}

// WALStats reports the log's observability counters; Engine.Stats
// surfaces them when the engine's store is durable.
func (s *WALStore) WALStats() WALStats {
	return s.log.snapshotStats()
}

// dumpState is the compactor's full-state snapshot source: the
// unbounded listing, which snapshots each shard under its own lock and
// merges lock-free.
func (s *WALStore) dumpState() []*core.Operation {
	ops, err := s.List(ListQuery{})
	if err != nil {
		// The in-memory listing cannot fail; keep the compactor
		// honest anyway.
		log.Printf("engine: wal snapshot listing state: %v", err)
		return nil
	}
	return ops
}

// closeAbrupt is the crash-simulation hook for the recovery tests: the
// committer exits without the final flush, dropping staged records the
// way a killed process would.
func (s *WALStore) closeAbrupt() {
	s.log.abort()
}
