package engine

// The ordered-index machinery under the sharded store (and so under the
// WAL store, which is the sharded store with a log attached): a
// storeShard couples one map of the ID space with an opIndex keeping
// those operations in listing order, so List pages are produced in
// O(limit) by walking (and, across shards, merging) index tails instead
// of cloning and sorting the whole store per request. The shard holds
// state only; every mutation is written once, in store_sharded.go.

import (
	"sort"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// opBefore reports whether a sorts before the key (createdAt, id) in
// index order: ascending CreatedAt with ties broken by descending ID.
// Walking an index backwards therefore yields the public List order —
// newest first, ties broken by ascending ID.
func opBefore(a *core.Operation, createdAt time.Time, id string) bool {
	if !a.CreatedAt.Equal(createdAt) {
		return a.CreatedAt.Before(createdAt)
	}
	return a.ID > id
}

// newerThan reports whether a sorts before b in the public newest-first
// order: descending CreatedAt with ties broken by ascending ID. It is
// the comparator the cross-shard merge uses.
func newerThan(a, b *core.Operation) bool {
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.After(b.CreatedAt)
	}
	return a.ID < b.ID
}

// opIndex holds one shard's operations sorted in index order (see
// opBefore). Operations submitted live arrive with non-decreasing
// CreatedAt, so the common insert is an append; out-of-order inserts
// (tests, future durable-store imports) binary-search their slot.
type opIndex struct {
	ops []*core.Operation
}

// search returns the position of the key (createdAt, id) in the index:
// the smallest i such that ops[i] does not sort before the key.
func (ix *opIndex) search(createdAt time.Time, id string) int {
	return sort.Search(len(ix.ops), func(i int) bool {
		return !opBefore(ix.ops[i], createdAt, id)
	})
}

// insert adds op, which must not already be present under its
// (CreatedAt, ID) key.
func (ix *opIndex) insert(op *core.Operation) {
	if n := len(ix.ops); n == 0 || opBefore(ix.ops[n-1], op.CreatedAt, op.ID) {
		ix.ops = append(ix.ops, op)
		return
	}
	i := ix.search(op.CreatedAt, op.ID)
	ix.ops = append(ix.ops, nil)
	copy(ix.ops[i+1:], ix.ops[i:])
	ix.ops[i] = op
}

// replace installs op at the position of its (CreatedAt, ID) key, which
// must be present. This is the copy-on-write publish: the index entry
// flips from the old immutable snapshot to the new one.
func (ix *opIndex) replace(op *core.Operation) {
	ix.ops[ix.search(op.CreatedAt, op.ID)] = op
}

// remove deletes the entry at the (createdAt, id) key, which must be
// present.
func (ix *opIndex) remove(createdAt time.Time, id string) {
	i := ix.search(createdAt, id)
	copy(ix.ops[i:], ix.ops[i+1:])
	ix.ops[len(ix.ops)-1] = nil // unpin the evicted snapshot
	ix.ops = ix.ops[:len(ix.ops)-1]
}

// removeAll deletes the entries in gone — each present, and listed in
// index order — in one compacting pass.
func (ix *opIndex) removeAll(gone []*core.Operation) {
	kept := ix.ops[:0]
	for _, op := range ix.ops {
		if len(gone) > 0 && op == gone[0] {
			gone = gone[1:]
			continue
		}
		kept = append(kept, op)
	}
	clear(ix.ops[len(kept):]) // unpin the evicted snapshots
	ix.ops = kept
}

// storeShard is one partition of the ID space: a mutex-guarded map for
// point lookups plus the opIndex that keeps the partition ordered. The
// sharded store is one or more of them.
//
// Copy-on-write invariant: every *core.Operation reachable from ops or
// the index is immutable. Update clones, mutates the clone, and
// republishes, so get and list hand out shared pointers with zero
// copying and readers outlive the lock safely.
type storeShard struct {
	mu  sync.RWMutex
	ops map[string]*core.Operation
	ix  opIndex
	// deltaN counts each live delta chain's length for a store with a
	// log (see walDeltaChainMax); it stays empty without one. An
	// absent entry means "last logged record was a full snapshot".
	deltaN map[string]uint8
}

func newStoreShard() *storeShard {
	return &storeShard{
		ops:    make(map[string]*core.Operation),
		deltaN: make(map[string]uint8),
	}
}

// putLocked installs op (taking ownership — the caller must not mutate
// it afterwards), replacing any previous operation with the same ID;
// a fresh full record restarts the ID's delta chain. Callers hold the
// write lock.
func (sh *storeShard) putLocked(op *core.Operation) {
	if old, ok := sh.ops[op.ID]; ok {
		sh.ix.remove(old.CreatedAt, old.ID)
	}
	sh.ops[op.ID] = op
	delete(sh.deltaN, op.ID)
	sh.ix.insert(op)
}

// removeLocked unpublishes op, which must be the snapshot stored under
// its ID. Callers hold the write lock.
func (sh *storeShard) removeLocked(op *core.Operation) {
	delete(sh.ops, op.ID)
	delete(sh.deltaN, op.ID)
	sh.ix.remove(op.CreatedAt, op.ID)
}

// get returns the published snapshot — a shared immutable pointer, no
// clone, no allocation.
func (sh *storeShard) get(id string) (*core.Operation, error) {
	sh.mu.RLock()
	op, ok := sh.ops[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, core.ErrNotFound
	}
	return op, nil
}

func (sh *storeShard) len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.ops)
}

// listChunkMax caps the chunk a filtered or unbounded List copies from
// one shard per lock hold, so the hold stays O(listChunkMax) however
// large the shard grows.
const listChunkMax = 4096

// listCursor is one shard's position in a List merge: a window of the
// shard's index (oldest-first) and the next position to emit, walking
// downwards (so downwards is newest-first). Under the all-shards read
// lock the window is the live index itself. Otherwise it is a chunk
// copied under the shard's own lock, and sh is set while older entries
// remain below it.
type listCursor struct {
	ops []*core.Operation
	pos int
	// sh is the shard the next chunk is copied from; nil once the
	// window reaches the shard's oldest entry.
	sh *storeShard
	// next is the size of the next chunk to copy.
	next int
}

func (c *listCursor) current() *core.Operation { return c.ops[c.pos] }

// fillLocked copies the chunk of sh's index that ends just below
// position end: up to c.next entries, reusing the cursor's buffer. Each
// fill doubles the next chunk, up to listChunkMax, so a scan that
// keeps going takes O(log) lock holds to reach full-size chunks.
// Callers hold at least sh's read lock.
func (c *listCursor) fillLocked(sh *storeShard, end int) {
	n := min(c.next, end)
	c.ops = append(c.ops[:0], sh.ix.ops[end-n:end]...)
	c.pos = n - 1
	c.sh = sh
	if n == end {
		c.sh = nil
	}
	c.next = min(2*c.next, listChunkMax)
}

// refill replaces a walked-off chunk with the next older one. Writers
// may have shifted the index since the last copy, so the chunk's
// oldest entry is found again by its (CreatedAt, ID) key, and only
// entries strictly older than it are copied: the cursor's sequence
// stays strictly newest-first whatever was inserted in between.
func (c *listCursor) refill() {
	sh, oldest := c.sh, c.ops[0]
	sh.mu.RLock()
	c.fillLocked(sh, sh.ix.search(oldest.CreatedAt, oldest.ID))
	sh.mu.RUnlock()
}

// listMerge k-way-merges shard cursors newest-first into the page a
// ListQuery selects (status filter, limit). It never takes a lock:
// cursor resolution and chunk refills are the caller's job, since they
// need the shard locks. The page is built of shared immutable
// pointers, so it stays valid after any locks are released.
//
// Cost: O(len(cursors)) to seed the heap, O(scanned) to step cursors
// past entries a status filter rejects, and O(limit · log shards) of
// heap work to emit (plus one sift per chunk refill).
type listMerge struct {
	h   []listCursor
	q   ListQuery
	out []*core.Operation
}

// newListMerge heapifies the non-empty cursors. candidates bounds the
// number of entries the walk can see, sizing an unfiltered page when
// no limit does.
func newListMerge(cursors []listCursor, q ListQuery, candidates int) listMerge {
	h := cursors[:0]
	for _, c := range cursors {
		if c.pos >= 0 {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	capHint := candidates
	switch {
	case q.Limit > 0:
		capHint = min(capHint, q.Limit)
	case q.Status != "":
		// An unbounded filtered page may keep a small share of the
		// candidates: it grows as it fills instead of being sized to
		// the whole store.
		capHint = 0
	}
	// Non-nil even when empty so the API layer marshals [] not null.
	return listMerge{h: h, q: q, out: make([]*core.Operation, 0, capHint)}
}

// run emits into m.out until the page is complete, and returns nil.
// It stops early only at a cursor that has walked off a copied chunk
// while its shard holds older entries, and returns that cursor: the
// caller refills it and calls run again, which resumes the merge.
func (m *listMerge) run() *listCursor {
	for len(m.h) > 0 {
		top := &m.h[0]
		if top.pos < 0 {
			if top.sh != nil {
				return top
			}
			last := len(m.h) - 1
			m.h[0] = m.h[last]
			m.h = m.h[:last]
			continue
		}
		// The top moved down (emitted, refilled or replaced) since the
		// heap was last ordered; every other cursor is in place.
		siftDown(m.h, 0)
		top = &m.h[0]
		op := top.current()
		if m.q.Status == "" || op.Status == m.q.Status {
			m.out = append(m.out, op)
			if m.q.Limit > 0 && len(m.out) == m.q.Limit {
				return nil
			}
		}
		top.pos--
		// Step past the entries the filter would reject before the
		// cursor re-enters the heap, so heap work is O(emitted · log
		// shards), not O(scanned · log shards). The walk stops at the
		// chunk's oldest entry: that one re-enters the heap by its own
		// key, so the chunk is refilled only when the merge reaches it,
		// never for a page that is already complete.
		if m.q.Status != "" {
			for top.pos > 0 && top.current().Status != m.q.Status {
				top.pos--
			}
		}
	}
	return nil
}

// siftDown restores the heap property at i for a heap ordered by
// newest-first current operations.
func siftDown(h []listCursor, i int) {
	for {
		left, right := 2*i+1, 2*i+2
		top := i
		if left < len(h) && newerThan(h[left].current(), h[top].current()) {
			top = left
		}
		if right < len(h) && newerThan(h[right].current(), h[top].current()) {
			top = right
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// startPos returns the index position a List walk over sh begins at:
// the newest entry when no cursor key is given, or the newest entry
// strictly older than the cursor key. -1 means the shard contributes
// nothing. Callers hold at least the read lock.
func (sh *storeShard) startPos(hasCursor bool, createdAt time.Time, id string) int {
	if !hasCursor {
		return len(sh.ix.ops) - 1
	}
	// Everything before the key's position sorts strictly older in
	// newest-first terms.
	return sh.ix.search(createdAt, id) - 1
}
