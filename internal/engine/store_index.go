package engine

// The ordered-index machinery shared by every in-memory Store
// implementation: a storeShard couples one map of the ID space with an
// opIndex keeping those operations in listing order, so List pages are
// produced in O(limit) by walking (and, across shards, merging) index
// tails instead of cloning and sorting the whole store per request.

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

// storeShard is one partition of the ID space: a mutex-guarded map for
// point lookups plus the opIndex that keeps the partition ordered. The
// sharded store is one or more of them.
//
// Copy-on-write invariant: every *core.Operation reachable from ops or
// the index is immutable. update clones, mutates the clone, and
// republishes, so get and list hand out shared pointers with zero
// copying and readers outlive the lock safely.
type storeShard struct {
	mu  sync.RWMutex
	ops map[string]*core.Operation
	ix  opIndex
}

func newStoreShard() *storeShard {
	return &storeShard{ops: make(map[string]*core.Operation)}
}

// put installs op (taking ownership — the caller must not mutate it
// afterwards), replacing any previous operation with the same ID.
// Callers hold the write lock.
func (sh *storeShard) putLocked(op *core.Operation) {
	if old, ok := sh.ops[op.ID]; ok {
		sh.ix.remove(old.CreatedAt, old.ID)
	}
	sh.ops[op.ID] = op
	sh.ix.insert(op)
}

func (sh *storeShard) put(op *core.Operation) {
	sh.mu.Lock()
	sh.putLocked(op)
	sh.mu.Unlock()
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

// update applies fn to a private clone of the stored operation and
// publishes the clone, all under the shard's write lock — concurrent
// read-modify-write transitions stay atomic, while snapshots handed
// out earlier keep their pre-update values forever.
func (sh *storeShard) update(id string, fn func(op *core.Operation)) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.ops[id]
	if !ok {
		return core.ErrNotFound
	}
	c := old.Clone()
	// This is THE sanctioned callback-under-lock: Update's contract is
	// that fn mutates a private clone atomically with its publication,
	// and every engine callback is a handful of field writes. Anything
	// heavier belongs outside the store.
	//lint:allow opdaemon/lockscope Update's clone-mutation callback is the store's core contract
	fn(c)
	sh.ops[id] = c
	if c.ID == old.ID && c.CreatedAt.Equal(old.CreatedAt) {
		sh.ix.replace(c)
	} else {
		// fn moved the operation's index key (nothing in the engine
		// does, but the contract doesn't forbid it): reindex under the
		// new key so ordering stays correct.
		delete(sh.ops, old.ID)
		sh.ops[c.ID] = c
		sh.ix.remove(old.CreatedAt, old.ID)
		sh.ix.insert(c)
	}
	return nil
}

func (sh *storeShard) delete(id string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.ops[id]
	if !ok {
		return
	}
	delete(sh.ops, id)
	sh.ix.remove(old.CreatedAt, old.ID)
}

// sweepTerminalBefore evicts expired terminal operations in one pass
// over the index, compacting it in place — no clones, no sorting, and
// the map deletes ride the same traversal.
func (sh *storeShard) sweepTerminalBefore(cutoff time.Time) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	kept := sh.ix.ops[:0]
	for _, op := range sh.ix.ops {
		if op.Status.Terminal() && op.UpdatedAt.Before(cutoff) {
			delete(sh.ops, op.ID)
			continue
		}
		kept = append(kept, op)
	}
	evicted := len(sh.ix.ops) - len(kept)
	for i := len(kept); i < len(sh.ix.ops); i++ {
		sh.ix.ops[i] = nil // unpin evicted snapshots
	}
	sh.ix.ops = kept
	return evicted
}

func (sh *storeShard) len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.ops)
}

// listCursor is one shard's position in a List merge: the shard's
// index slice and the next position to emit, walking downwards (the
// slice is oldest-first, so downwards is newest-first).
type listCursor struct {
	ops []*core.Operation
	pos int
}

func (c *listCursor) current() *core.Operation { return c.ops[c.pos] }

// collectNewest merges the cursors newest-first and returns the page
// selected by q (status filter, limit). Cursor resolution — turning
// q.Cursor into per-shard start positions — is the caller's job, since
// it needs the shard locks; collectNewest only walks. The caller must
// hold (at least) read locks on every contributing shard for the
// duration of the call; the returned page is built of shared immutable
// pointers, so it stays valid after the locks are released.
//
// Cost: O(len(cursors)) to seed the heap plus O(scanned · log shards)
// to emit, where scanned == limit when no status filter is set. The
// only allocations are the output slice and the heap.
func collectNewest(cursors []listCursor, q ListQuery) []*core.Operation {
	// Drop exhausted shards, then heapify by newest-first current op.
	h := cursors[:0]
	total := 0
	for _, c := range cursors {
		if c.pos >= 0 {
			h = append(h, c)
			total += c.pos + 1
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	capHint := total
	if q.Limit > 0 && q.Limit < capHint {
		capHint = q.Limit
	}
	// Non-nil even when empty so the API layer marshals [] not null.
	out := make([]*core.Operation, 0, capHint)
	for len(h) > 0 {
		op := h[0].current()
		if q.Status == "" || op.Status == q.Status {
			out = append(out, op)
			if q.Limit > 0 && len(out) == q.Limit {
				return out
			}
		}
		h[0].pos--
		if h[0].pos < 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	return out
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
