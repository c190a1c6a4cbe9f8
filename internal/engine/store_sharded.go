package engine

import (
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// DefaultShardCount is the shard count NewShardedStore picks when the
// caller passes n <= 0: the next power of two at or above
// runtime.GOMAXPROCS(0). Lock contention scales with the number of
// goroutines the scheduler can actually run at once, so the default
// tracks the hardware instead of hardcoding a count — one shard on a
// single-core container, 16 on a 16-way host. Raise it explicitly
// (e.g. the daemon's -store-shards flag) to trade memory for extra
// headroom under skewed load.
func DefaultShardCount() int {
	return nextPowerOfTwo(runtime.GOMAXPROCS(0))
}

// shardedStore is a Store partitioned into power-of-two shards, each a
// separately locked map plus an ordered index. Operations are assigned
// to shards by a maphash of their ID (per-process random seed), so
// goroutines touching different operations almost always contend on
// different locks. It is the engine's one in-memory Store (the WAL
// store wraps it too); the conformance suite in
// store_conformance_test.go holds it to the interface contract.
type shardedStore struct {
	shards []*storeShard
	// mask is len(shards)-1; with a power-of-two shard count,
	// hash&mask selects a shard without a modulo.
	mask uint32
}

// maxShardCount bounds the shard count. 2^16 shards is far beyond any
// useful lock granularity, and the cap keeps the power-of-two
// round-up below integer-overflow territory.
const maxShardCount = 1 << 16

// NewShardedStore returns an empty Store partitioned across n
// hash-selected shards. n is rounded up to the next power of two so
// shard selection is a bit mask; n <= 0 selects DefaultShardCount()
// and n > 65536 is clamped there. A single-shard store (n == 1) is
// what NewMemStore returns, and the single-lock baseline in
// benchmarks.
func NewShardedStore(n int) Store {
	n = normalizeShardCount(n)
	s := &shardedStore{
		shards: make([]*storeShard, n),
		mask:   uint32(n - 1),
	}
	for i := range s.shards {
		s.shards[i] = newStoreShard()
	}
	return s
}

// normalizeShardCount applies the shared shard-geometry policy — the
// GOMAXPROCS-scaled default for n <= 0, the maxShardCount clamp, and
// the power-of-two round-up — in one place so the store and the
// engine's cancel registry can never drift apart.
func normalizeShardCount(n int) int {
	if n <= 0 {
		n = DefaultShardCount()
	}
	if n > maxShardCount {
		n = maxShardCount
	}
	return nextPowerOfTwo(n)
}

// nextPowerOfTwo returns the smallest power of two >= n, for n >= 1.
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shard maps an operation ID to its partition.
func (s *shardedStore) shard(id string) *storeShard {
	return s.shards[s.shardIndex(id)]
}

func (s *shardedStore) Put(op *core.Operation) {
	s.shard(op.ID).put(op)
}

func (s *shardedStore) PutBatch(ops []*core.Operation) {
	// Single-op batches (every Submit routes through here) skip the
	// bucket table — its O(shard-count) allocation would dominate
	// the hot path it exists to amortise.
	if len(ops) == 1 {
		s.Put(ops[0])
		return
	}
	// Group by shard outside any lock, then take each shard's lock at
	// most once per batch instead of once per operation.
	buckets := make([][]*core.Operation, len(s.shards))
	for _, op := range ops {
		i := s.shardIndex(op.ID)
		buckets[i] = append(buckets[i], op)
	}
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		sh := s.shards[i]
		sh.mu.Lock()
		for _, op := range bucket {
			sh.putLocked(op)
		}
		sh.mu.Unlock()
	}
}

// bulkLoad installs a recovered operation set wholesale: bucket by
// shard, sort each bucket once into index order, and adopt the sorted
// slice as the shard's index directly. One O(k log k) sort per shard
// replaces k ordered inserts — recovery replay hands the ops over in
// map order, where per-op insertion is an O(k) memmove each and the
// rebuild goes quadratic. Shards load in parallel. The IDs must be
// unique (they come from a replay map); intended for a store not yet
// serving traffic, though it takes the locks anyway.
func (s *shardedStore) bulkLoad(ops []*core.Operation) {
	buckets := make([][]*core.Operation, len(s.shards))
	for _, op := range ops {
		i := s.shardIndex(op.ID)
		buckets[i] = append(buckets[i], op)
	}
	var wg sync.WaitGroup
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *storeShard, bucket []*core.Operation) {
			defer wg.Done()
			sort.Slice(bucket, func(a, b int) bool {
				return opBefore(bucket[a], bucket[b].CreatedAt, bucket[b].ID)
			})
			sh.mu.Lock()
			for _, op := range bucket {
				sh.ops[op.ID] = op
			}
			sh.ix.ops = bucket
			sh.mu.Unlock()
		}(s.shards[i], bucket)
	}
	wg.Wait()
}

// shardSeed keys the shard hash. One process-wide random seed keeps
// shard assignment stable for the process lifetime while preventing an
// external party from predicting (and deliberately skewing) the
// distribution.
var shardSeed = maphash.MakeSeed()

// shardIndex hashes an operation ID to a shard index using the
// runtime's maphash — the same hardware-accelerated, allocation-free
// hash Go maps use, so shard selection costs single-digit nanoseconds
// even for long keys.
func (s *shardedStore) shardIndex(id string) int {
	return int(uint32(maphash.String(shardSeed, id)) & s.mask)
}

func (s *shardedStore) Get(id string) (*core.Operation, error) {
	return s.shard(id).get(id)
}

// List k-way-merges the shard index tails newest-first. Two locking
// strategies keep writers available:
//
//   - Bounded, unfiltered pages (the poll hot path) read-lock every
//     shard — always in index order, the only path holding more than
//     one shard lock, and read locks only, so no deadlock cycle with
//     the one-at-a-time sweep — for a critical section that is
//     O(shards + limit·log shards) by construction: short no matter
//     how large the store is, and free of per-element copies.
//   - Unbounded or status-filtered queries can scan O(n), so instead
//     of stalling every writer store-wide for the whole merge they
//     snapshot each shard's candidate range under that shard's lock
//     alone (a pointer copy — published snapshots are immutable) and
//     merge lock-free, restoring the one-shard-at-a-time write
//     availability the pre-index implementation had.
//
// Either way List is not a cross-shard point-in-time snapshot (an op
// stored concurrently may or may not appear), matching the interface
// contract which only promises per-op snapshot consistency.
func (s *shardedStore) List(q ListQuery) ([]*core.Operation, error) {
	// Resolve the cursor up front via its shard's own lock: an
	// unknown cursor is an empty page, and a known one contributes
	// only its immutable (CreatedAt, ID) key — still a correct resume
	// point even if the op is evicted before the merge below runs.
	var key *core.Operation
	if q.Cursor != "" {
		op, err := s.shard(q.Cursor).get(q.Cursor)
		if err != nil {
			return []*core.Operation{}, nil
		}
		key = op
	}

	if q.Limit > 0 && q.Status == "" {
		for _, sh := range s.shards {
			sh.mu.RLock()
		}
		defer func() {
			for _, sh := range s.shards {
				sh.mu.RUnlock()
			}
		}()
		cursors := make([]listCursor, len(s.shards))
		for i, sh := range s.shards {
			cursors[i] = listCursor{ops: sh.ix.ops, pos: startPosFor(sh, key)}
		}
		return collectNewest(cursors, q), nil
	}

	cursors := make([]listCursor, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		pos := startPosFor(sh, key)
		var snap []*core.Operation
		if pos >= 0 {
			snap = make([]*core.Operation, pos+1)
			copy(snap, sh.ix.ops[:pos+1])
		}
		sh.mu.RUnlock()
		cursors[i] = listCursor{ops: snap, pos: pos}
	}
	return collectNewest(cursors, q), nil
}

// startPosFor adapts storeShard.startPos to an optional cursor key.
func startPosFor(sh *storeShard, key *core.Operation) int {
	if key == nil {
		return sh.startPos(false, time.Time{}, "")
	}
	return sh.startPos(true, key.CreatedAt, key.ID)
}

func (s *shardedStore) Update(id string, fn func(op *core.Operation)) error {
	return s.shard(id).update(id, fn)
}

func (s *shardedStore) Delete(id string) {
	s.shard(id).delete(id)
}

func (s *shardedStore) SweepTerminalBefore(cutoff time.Time) int {
	// One shard lock at a time: the sweep never holds more than one
	// lock, so concurrent per-operation traffic on other shards is
	// unaffected. (List holds all shard locks, but only read locks,
	// acquired in index order — no cycle with this sequential walk.)
	evicted := 0
	for _, sh := range s.shards {
		evicted += sh.sweepTerminalBefore(cutoff)
	}
	return evicted
}

func (s *shardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.len()
	}
	return n
}
