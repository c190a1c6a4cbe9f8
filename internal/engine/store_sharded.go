package engine

import (
	"hash/maphash"
	"log"
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
// different locks. It is the engine's one Store implementation: the
// WAL store is this store with a log attached. The conformance suite in
// store_conformance_test.go holds it to the interface contract.
type shardedStore struct {
	shards []*storeShard
	// mask is len(shards)-1; with a power-of-two shard count,
	// hash&mask selects a shard without a modulo.
	mask uint32
	// log is the write-ahead log every mutation stages its record
	// into; nil for a memory-only store.
	log *wal
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
	return newShardedStore(n)
}

func newShardedStore(n int) *shardedStore {
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

// The mutators below are the store's one write path, with or without a
// log. The log must record mutations in the same per-ID order the index
// publishes them, or replay could resurrect a stale state, so each
// mutation stages its record into the WAL batch buffer while still
// holding the shard's write lock: apply and enqueue are atomic per
// record. That nests walBatch.mu inside storeShard.mu (the one
// sanctioned lock nesting, policed by lockscope), and it is why
// writers never touch the file themselves. Records are encoded before
// the lock is taken (lockscope's codec rule enforces it), so the
// critical section is apply + staging of a prepared buffer. A mutator
// asks whether s.log is nil only to decide whether to encode;
// enqueue and the waits are no-ops without a log.

func (s *shardedStore) Put(op *core.Operation) {
	s.log.admitWait(s.putShard(s.shardIndex(op.ID), []*core.Operation{op}))
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
	var last *walGen
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if g := s.putShard(i, bucket); g != nil {
			last = g
		}
	}
	// All buckets board the same in-flight generation in practice;
	// waiting on the newest ticket covers every staged record because
	// generations commit in order.
	s.log.admitWait(last)
}

// putShard installs ops, which all hash to shard i, under one
// acquisition of its write lock and returns the commit ticket of their
// staged records. The records capture the operations as handed over,
// which ownership transfer makes stable.
func (s *shardedStore) putShard(i int, ops []*core.Operation) *walGen {
	var buf *[]byte
	recs := 0
	if s.log != nil {
		buf = getEncBuf()
		for _, op := range ops {
			var err error
			if *buf, err = encodeOpRecordV2(*buf, op); err != nil {
				// Memory-only fallback: the mutation still applies but
				// will not survive a restart. The encoder rewound to
				// the frame mark.
				log.Printf("engine: %v; operation is not durable", err)
				continue
			}
			recs++
		}
	}
	sh := s.shards[i]
	sh.mu.Lock()
	for _, op := range ops {
		sh.putLocked(op)
	}
	g := s.log.enqueue(buf, recs)
	sh.mu.Unlock()
	putEncBuf(buf)
	return g
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
//   - Unbounded or status-filtered queries may scan far more entries
//     than they return, so they never hold more than one shard lock.
//     Each shard's walk copies a bounded chunk of its index under that
//     shard's read lock alone (a pointer copy — published snapshots are
//     immutable): the first chunk holds limit entries, each refill
//     doubles it up to listChunkMax, and a refill finds its place again
//     by the last copied (CreatedAt, ID) key. A page therefore costs
//     O(scanned), not O(store), and every lock hold is O(listChunkMax),
//     keeping the one-shard-at-a-time write availability.
//
// Either way List is not a cross-shard point-in-time snapshot (an op
// stored concurrently may or may not appear), matching the interface
// contract which only promises per-op snapshot consistency; each page
// is still strictly newest-first.
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

	cursors := make([]listCursor, len(s.shards))
	candidates := 0
	if q.Limit > 0 && q.Status == "" {
		for _, sh := range s.shards {
			sh.mu.RLock()
		}
		defer func() {
			for _, sh := range s.shards {
				sh.mu.RUnlock()
			}
		}()
		for i, sh := range s.shards {
			pos := startPosFor(sh, key)
			cursors[i] = listCursor{ops: sh.ix.ops, pos: pos}
			candidates += pos + 1
		}
		m := newListMerge(cursors, q, candidates)
		m.run() // live-index windows never need a refill
		return m.out, nil
	}

	first := listChunkMax
	if q.Limit > 0 && q.Limit < first {
		first = q.Limit
	}
	for i, sh := range s.shards {
		c := &cursors[i]
		c.next = first
		sh.mu.RLock()
		end := startPosFor(sh, key) + 1
		c.fillLocked(sh, end)
		sh.mu.RUnlock()
		candidates += end
	}
	m := newListMerge(cursors, q, candidates)
	for c := m.run(); c != nil; c = m.run() {
		c.refill()
	}
	return m.out, nil
}

// startPosFor adapts storeShard.startPos to an optional cursor key.
func startPosFor(sh *storeShard, key *core.Operation) int {
	if key == nil {
		return sh.startPos(false, time.Time{}, "")
	}
	return sh.startPos(true, key.CreatedAt, key.ID)
}

// Update is optimistic: it clones the published snapshot and runs fn
// with no lock held, then publishes under the shard's write lock only
// if the shard still maps id to the pointer it cloned. Published
// snapshots are immutable, so an unchanged pointer proves nothing
// intervened; otherwise the whole round retries against the fresh
// snapshot (so fn may run more than once — see Store.Update's
// contract). Contention on one ID is engine-rare (a transition race
// with Cancel), so retries are too.
//
// With a log, a pure lifecycle transition logs a compact delta record;
// anything that touched immutable-by-convention fields — or a delta
// chain at its bound — logs a full snapshot. Under WALSyncAlways the
// caller waits for the fsync; group mode logs transitions
// asynchronously (see WALSyncMode).
func (s *shardedStore) Update(id string, fn func(op *core.Operation)) error {
	sh := s.shard(id)
	for {
		sh.mu.RLock()
		old, ok := sh.ops[id]
		chain := sh.deltaN[id]
		sh.mu.RUnlock()
		if !ok {
			return core.ErrNotFound
		}

		c := old.Clone()
		fn(c)
		sameKey := c.ID == old.ID && c.CreatedAt.Equal(old.CreatedAt)
		asDelta := false
		var buf *[]byte
		if s.log != nil {
			asDelta = sameKey && chain+1 < walDeltaChainMax && core.DeltaEligible(old, c)
			buf = getEncBuf()
			*buf = appendUpdateRecord(*buf, old, c, asDelta)
		}

		sh.mu.Lock()
		if sh.ops[id] != old {
			// A conflicting publish (another update, a delete, a re-put)
			// landed between snapshot and lock: the clone and record
			// describe a stale base. Drop both and retry.
			sh.mu.Unlock()
			putEncBuf(buf)
			continue
		}
		if sameKey {
			sh.ops[id] = c
			sh.ix.replace(c)
		} else {
			// fn moved the operation's index key (nothing in the engine
			// does, but the contract allows a new CreatedAt): reindex
			// under the new key so ordering stays correct.
			sh.removeLocked(old)
			sh.putLocked(c)
		}
		if asDelta {
			sh.deltaN[id] = chain + 1
		} else {
			delete(sh.deltaN, id)
		}
		g := s.log.enqueue(buf, 1)
		sh.mu.Unlock()
		putEncBuf(buf)
		s.log.transitionWait(g)
		return nil
	}
}

// appendUpdateRecord encodes the log record for an update that turned
// old into c: a delta when asDelta, else a full snapshot, preceded by
// old's tombstone when fn moved the ID so replay tracks the
// disappearance.
func appendUpdateRecord(dst []byte, old, c *core.Operation, asDelta bool) []byte {
	if asDelta {
		return encodeDeltaRecordV2(dst, c)
	}
	if c.ID != old.ID {
		dst = appendDeleteRecord(dst, old.ID)
	}
	dst, err := encodeOpRecordV2(dst, c)
	if err != nil {
		log.Printf("engine: %v; update is not durable", err)
	}
	return dst
}

// Delete removes the operation and stages its tombstone. The tombstone
// is encoded up front — wasted work when the operation turns out not to
// exist, but deletes of absent IDs are not a path worth a codec call
// inside the lock.
func (s *shardedStore) Delete(id string) {
	var buf *[]byte
	if s.log != nil {
		buf = getEncBuf()
		*buf = appendDeleteRecord(*buf, id)
	}
	sh := s.shard(id)
	var g *walGen
	sh.mu.Lock()
	// Nothing stored means nothing to tombstone: replay of the existing
	// log already yields absence.
	if old, ok := sh.ops[id]; ok {
		sh.removeLocked(old)
		g = s.log.enqueue(buf, 1)
	}
	sh.mu.Unlock()
	putEncBuf(buf)
	s.log.transitionWait(g)
}

// SweepTerminalBefore evicts expired terminal operations one shard at
// a time: the sweep never holds more than one lock, so concurrent
// per-operation traffic on other shards is unaffected. (List holds all
// shard locks, but only read locks, acquired in index order — no cycle
// with this sequential walk.) Each shard takes two passes so no
// tombstone is encoded under the lock: a read-locked pass collects the
// candidates, their tombstones are encoded lock-free, and a
// write-locked pass confirms each candidate by pointer identity (a
// re-Put or update between the passes publishes a different snapshot,
// which is left alone), evicts the confirmed ones, and stages their
// frames. A mass eviction additionally requests a compaction so the
// reclaimed history stops costing replay time.
func (s *shardedStore) SweepTerminalBefore(cutoff time.Time) int {
	evicted := 0
	var last *walGen
	var buf *[]byte
	if s.log != nil {
		buf = getEncBuf()
	}
	var cands []*core.Operation
	var offs []int
	for _, sh := range s.shards {
		cands = cands[:0]
		sh.mu.RLock()
		for _, op := range sh.ix.ops {
			if op.Status.Terminal() && op.UpdatedAt.Before(cutoff) {
				cands = append(cands, op)
			}
		}
		sh.mu.RUnlock()
		if len(cands) == 0 {
			continue
		}

		if buf != nil {
			// Encode every candidate's tombstone contiguously,
			// remembering frame boundaries so the confirm pass can
			// keep the confirmed ones.
			*buf = (*buf)[:0]
			offs = offs[:0]
			for _, op := range cands {
				offs = append(offs, len(*buf))
				*buf = appendDeleteRecord(*buf, op.ID)
			}
			offs = append(offs, len(*buf))
		}

		sh.mu.Lock()
		// Filter cands in place down to the confirmed evictions, which
		// stay in index order, and compact their tombstones to the
		// front of the buffer.
		confirmed := cands[:0]
		staged := 0
		for ci, op := range cands {
			if sh.ops[op.ID] != op {
				continue
			}
			delete(sh.ops, op.ID)
			delete(sh.deltaN, op.ID)
			confirmed = append(confirmed, op)
			if buf != nil {
				staged += copy((*buf)[staged:], (*buf)[offs[ci]:offs[ci+1]])
			}
		}
		if len(confirmed) > 0 {
			sh.ix.removeAll(confirmed)
			if buf != nil {
				*buf = (*buf)[:staged]
			}
			if g := s.log.enqueue(buf, len(confirmed)); g != nil {
				last = g
			}
		}
		sh.mu.Unlock()
		evicted += len(confirmed)
	}
	putEncBuf(buf)
	if evicted >= sweepCompactThreshold {
		s.log.requestCompact()
	}
	s.log.transitionWait(last)
	return evicted
}

func (s *shardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.len()
	}
	return n
}
