package engine

// The scheduling layer that replaced the single FIFO dispatch channel.
// Accepted operations land in a schedQueue: three priority bands
// (high/normal/low), each holding per-client FIFO queues served in
// deficit-round-robin order. Dispatch order is decided at dequeue
// time, so one greedy tenant's backlog no longer sits in front of
// everyone else's work:
//
//   - Between bands, the strict policy drains the highest non-empty
//     band first; the weighted policy cycles bands with configurable
//     credits so lower bands get a proportional share even under
//     sustained high-priority load.
//   - Within a band, each client gets one quantum of operations per
//     round-robin turn (unit-cost DRR), so a client with 10,000 queued
//     operations and a client with 1 alternate instead of the 10,000
//     draining first.
//   - An aging escape valve bounds starvation under the strict policy:
//     when the oldest waiter of a band below the currently served one
//     has queued longer than promoteAfter, it is served next (it is by
//     construction its client's FIFO head, so serving it is the
//     promotion). The valve is capped at one aged dispatch per
//     agedEvery takes so a flood of aged low-priority work cannot
//     invert the bands.
//
// The queue is also the engine's one admission ledger. Its capacity,
// shed threshold, the slots reserved by submissions still storing
// their batch, and the closed flag all live under schedQueue.mu, so a
// submission's admission check, a worker's dispatch and Shutdown's
// close serialise on that one lock and one count (n + reserved).
//
// Concurrency contract: schedQueue.mu guards a few map/slice
// operations and nothing else. Its name places its critical sections
// under the lockscope analyzer — no channel operations, callbacks,
// Store calls, or re-entrant shard locking while it is held. The one
// blocking call, the condition wait in wait, releases mu while it
// sleeps. Time is sampled by callers and passed in, because the
// engine's clock is a function value the analyzer (rightly) refuses to
// see invoked under the lock.

import (
	"math"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// numBands is the number of priority bands.
const numBands = 3

// agedEvery caps the aging escape valve: at most one aged dispatch per
// this many takes, so aged low-band backlogs are drained without
// inverting the priority order.
const agedEvery = 4

// Scheduling policies selectable via Config.QueuePolicy.
const (
	// PolicyStrict drains the highest non-empty band first; lower bands
	// progress only through the aging valve.
	PolicyStrict = "strict"
	// PolicyWeighted cycles bands with Config.BandWeights credits per
	// round, giving every band a proportional share.
	PolicyWeighted = "weighted"
)

// bandIndex maps a resolved priority onto its band slot; lower index
// drains first under the strict policy.
func bandIndex(p core.Priority) int {
	switch p {
	case core.PriorityHigh:
		return 0
	case core.PriorityLow:
		return 2
	default:
		return 1
	}
}

// bandPriority is the inverse of bandIndex, for stats labels.
func bandPriority(i int) core.Priority {
	switch i {
	case 0:
		return core.PriorityHigh
	case 2:
		return core.PriorityLow
	default:
		return core.PriorityNormal
	}
}

// schedItem is one accepted operation awaiting dispatch.
type schedItem struct {
	id       string
	client   string
	enqueued time.Time
	// taken marks items already dispatched, so the band's arrival list
	// can skip them lazily instead of paying O(n) removals.
	taken bool
}

// clientQueue is one client's FIFO within a band plus its DRR credit.
// The head index avoids O(n) slice shifts on every pop.
type clientQueue struct {
	key     string
	items   []*schedItem
	head    int
	deficit int
}

func (cq *clientQueue) empty() bool { return cq.head >= len(cq.items) }

func (cq *clientQueue) pending() int { return len(cq.items) - cq.head }

func (cq *clientQueue) push(it *schedItem) { cq.items = append(cq.items, it) }

func (cq *clientQueue) pop() *schedItem {
	it := cq.items[cq.head]
	cq.items[cq.head] = nil // unpin for GC
	cq.head++
	if cq.empty() {
		cq.items = cq.items[:0]
		cq.head = 0
	}
	return it
}

// schedBand is one priority band: per-client queues in DRR rotation
// plus an arrival-order list that makes "oldest waiter" an O(1)
// question for the aging valve.
type schedBand struct {
	clients map[string]*clientQueue
	// active is the DRR rotation; active[0] is the client currently
	// being served. Queues drained out-of-turn by the aging valve stay
	// listed and are dropped lazily when their turn comes.
	active  []*clientQueue
	arrival []*schedItem
	astart  int
	n       int
}

// head returns the band's oldest pending item, compacting the arrival
// list past items the DRR path already dispatched.
func (b *schedBand) head() *schedItem {
	for b.astart < len(b.arrival) {
		if it := b.arrival[b.astart]; !it.taken {
			return it
		}
		b.arrival[b.astart] = nil
		b.astart++
	}
	b.arrival = b.arrival[:0]
	b.astart = 0
	return nil
}

// next serves one item from the band in DRR order: the client at the
// front of the rotation spends one deficit credit per operation and
// rotates to the back when its quantum is spent.
func (b *schedBand) next(quantum int) *schedItem {
	for len(b.active) > 0 {
		cq := b.active[0]
		if cq.empty() {
			// Drained out of turn by the aging valve; retire the queue.
			b.active = b.active[1:]
			delete(b.clients, cq.key)
			continue
		}
		if cq.deficit <= 0 {
			cq.deficit = quantum
		}
		it := cq.pop()
		it.taken = true
		cq.deficit--
		b.n--
		if cq.empty() {
			b.active = b.active[1:]
			delete(b.clients, cq.key)
		} else if cq.deficit == 0 {
			b.active = append(b.active[1:], cq)
		}
		return it
	}
	return nil
}

// takeHead dispatches the band's oldest pending item out of DRR order
// — the aging valve's promotion — returning the item actually removed.
// The item is necessarily its client's FIFO head: it is the oldest
// pending item of the whole band, and client queues pop oldest-first.
// An emptied queue stays in active/clients; the DRR path retires it
// lazily when its turn comes, and re-adds land in the same queue.
func (b *schedBand) takeHead(it *schedItem) *schedItem {
	popped := b.clients[it.client].pop()
	popped.taken = true
	b.n--
	return popped
}

// schedQueue is the engine's dispatch queue and admission ledger:
// priority bands over per-client DRR queues, plus the capacity and
// shed bounds every admission is counted against, all guarded by one
// short-critical-section mutex. Its type name places those critical
// sections under the lockscope analyzer's no-blocking-under-lock
// contract.
type schedQueue struct {
	mu sync.Mutex
	// wake is signalled once per queued operation and broadcast by
	// close; idle workers wait on it. Its L is &mu.
	wake  sync.Cond
	bands [numBands]schedBand
	// quantum is the DRR credit granted per client turn (operations).
	quantum int
	// weighted selects the weighted band policy; weights/credits/cur
	// are its rotation state.
	weighted bool
	weights  [numBands]int
	credits  [numBands]int
	cur      int
	// promoteAfter is the aging threshold; zero disables the valve.
	promoteAfter time.Duration
	// sinceAged counts takes since the last aged dispatch, for the
	// 1-in-agedEvery cap.
	sinceAged int
	// n counts queued, undispatched operations; reserved counts slots
	// held by submissions between reserve and add. Their sum is the
	// queue depth that capacity and shedAt bound.
	n        int
	reserved int
	// capacity is the hard depth bound (Config.QueueDepth); shedAt is
	// the depth at which admission control starts refusing with
	// core.ErrSaturated, and shedAt > capacity disables shedding. Both
	// are fixed at construction.
	capacity int
	shedAt   int
	// closed refuses every later admission; workers drain what is
	// queued and then stop.
	closed bool
}

// newSchedQueue builds a scheduler from a config normalized by
// engine.New (policy a known constant, quantum >= 1, weights >= 1,
// PromoteAfter zero when aging is disabled, QueueDepth >= 1).
func newSchedQueue(cfg Config) *schedQueue {
	// Shedding starts at ceil(threshold * capacity) queued operations;
	// outside (0, 1) only the hard ErrQueueFull bound applies.
	shedAt := cfg.QueueDepth + 1
	if cfg.ShedThreshold > 0 && cfg.ShedThreshold < 1 {
		shedAt = max(1, int(math.Ceil(cfg.ShedThreshold*float64(cfg.QueueDepth))))
	}
	s := &schedQueue{
		quantum:  cfg.DRRQuantum,
		weighted: cfg.QueuePolicy == PolicyWeighted,
		weights:  cfg.BandWeights,
		// Credits start full so the very first take serves the highest
		// band rather than skipping it while the rotation warms up.
		credits:      cfg.BandWeights,
		promoteAfter: cfg.PromoteAfter,
		capacity:     cfg.QueueDepth,
		shedAt:       shedAt,
	}
	s.wake.L = &s.mu
	for i := range s.bands {
		s.bands[i].clients = make(map[string]*clientQueue)
	}
	return s
}

// reserve holds k queue slots for a batch about to be stored, so the
// store write can run outside the lock without the queue overfilling
// behind it. It refuses with core.ErrShuttingDown once the queue is
// closed, core.ErrSaturated when the batch would push depth past the
// shed threshold, and core.ErrQueueFull when it would exceed capacity.
// Every successful reserve must be followed by add with the same k.
func (s *schedQueue) reserve(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.n + s.reserved
	switch {
	case s.closed:
		return core.ErrShuttingDown
	case depth+k > s.shedAt:
		return core.ErrSaturated
	case depth+k > s.capacity:
		return core.ErrQueueFull
	}
	s.reserved += k
	return nil
}

// add turns the slots reserve holds for ops into queued operations,
// all or none: if close ran since the reservation it queues nothing
// and reports false. Either way the reservation is released. now is
// sampled by the caller (the engine clock is a function value, not
// callable under the lock).
func (s *schedQueue) add(ops []*core.Operation, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved -= len(ops)
	if s.closed {
		return false
	}
	for _, op := range ops {
		s.push(op, now)
	}
	return true
}

// requeue queues one recovered operation. Unlike a submission it is
// bounded by capacity alone, not by the shed threshold: recovered work
// was already admitted once, so shedding it would only fail it. It
// refuses with core.ErrShuttingDown once closed and core.ErrQueueFull
// at capacity.
func (s *schedQueue) requeue(op *core.Operation, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return core.ErrShuttingDown
	case s.n+s.reserved >= s.capacity:
		return core.ErrQueueFull
	}
	s.push(op, now)
	return nil
}

// push enqueues op under its client's queue in its priority band and
// wakes one waiting worker. Callers hold s.mu.
func (s *schedQueue) push(op *core.Operation, now time.Time) {
	it := &schedItem{id: op.ID, client: op.Client, enqueued: now}
	b := &s.bands[bandIndex(op.Priority)]
	cq := b.clients[op.Client]
	if cq == nil {
		cq = &clientQueue{key: op.Client}
		b.clients[op.Client] = cq
		b.active = append(b.active, cq)
	}
	cq.push(it)
	b.arrival = append(b.arrival, it)
	b.n++
	s.n++
	s.wake.Signal()
}

// wait blocks until an operation is queued or the queue is closed. It
// reports false once the queue is closed and drained, which is a
// worker's signal to exit; true means take may find work (another
// worker can still win it first).
func (s *schedQueue) wait() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 && !s.closed {
		s.wake.Wait()
	}
	return s.n > 0
}

// close refuses every later admission and wakes every waiting worker
// so the queue drains. It reports whether this call closed the queue.
func (s *schedQueue) close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	s.wake.Broadcast()
	return true
}

// depth is the queue depth admission is bounded by: queued operations
// plus slots reserved by submissions still storing their batch.
func (s *schedQueue) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n + s.reserved
}

// take dispatches the next operation, or reports false on an empty
// queue — another worker took the last item since this one's wait.
func (s *schedQueue) take(now time.Time) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return "", false
	}
	s.sinceAged++
	if it := s.takeAged(now); it != nil {
		s.sinceAged = 0
		s.n--
		s.compact()
		return it.id, true
	}
	var it *schedItem
	if s.weighted {
		it = s.takeWeighted()
	} else {
		it = s.takeStrict()
	}
	if it == nil {
		return "", false
	}
	s.n--
	s.compact()
	return it.id, true
}

// compact advances every band's arrival list past already-dispatched
// items. Each dispatch marks its item taken but leaves it in arrival;
// without this sweep the busiest band (which the aging valve never
// inspects — it only looks at bands below the first non-empty one)
// would pin every dispatched item forever, a leak proportional to
// total operations ever enqueued. Each arrival slot is advanced past
// exactly once, so the sweep is amortized O(1) per dispatch and keeps
// arrival bounded by the band's pending items.
func (s *schedQueue) compact() {
	for i := range s.bands {
		s.bands[i].head()
	}
}

// takeAged is the starvation escape valve: among bands below the first
// non-empty one (those the current policy may be under-serving), serve
// the oldest waiter whose age crossed promoteAfter. Capped at one aged
// dispatch per agedEvery takes.
func (s *schedQueue) takeAged(now time.Time) *schedItem {
	if s.promoteAfter <= 0 || s.sinceAged < agedEvery {
		return nil
	}
	first := 0
	for first < numBands && s.bands[first].n == 0 {
		first++
	}
	var oldest *schedItem
	oldestBand := -1
	for i := first + 1; i < numBands; i++ {
		h := s.bands[i].head()
		if h == nil || now.Sub(h.enqueued) < s.promoteAfter {
			continue
		}
		if oldest == nil || h.enqueued.Before(oldest.enqueued) {
			oldest, oldestBand = h, i
		}
	}
	if oldest == nil {
		return nil
	}
	return s.bands[oldestBand].takeHead(oldest)
}

// takeStrict serves the highest non-empty band.
func (s *schedQueue) takeStrict() *schedItem {
	for i := range s.bands {
		if s.bands[i].n > 0 {
			return s.bands[i].next(s.quantum)
		}
	}
	return nil
}

// takeWeighted cycles bands in weighted round-robin: the current band
// spends one credit per dispatch, and the rotation advances past a
// band when it has nothing to serve or its credits are exhausted —
// replenishing only exhausted credits, so a band skipped while empty
// keeps its remaining share and the weights ratio holds among the
// bands that have work. Two full cycles always reach a non-empty band
// when one exists; the strict fallback is unreachable belt-and-braces.
func (s *schedQueue) takeWeighted() *schedItem {
	for tries := 0; tries < numBands*2; tries++ {
		if s.credits[s.cur] > 0 && s.bands[s.cur].n > 0 {
			s.credits[s.cur]--
			return s.bands[s.cur].next(s.quantum)
		}
		if s.credits[s.cur] <= 0 {
			s.credits[s.cur] = s.weights[s.cur]
		}
		s.cur = (s.cur + 1) % numBands
	}
	return s.takeStrict()
}

// depths reports the per-band and per-client pending counts for Stats
// and /v1/health. The per-client map aggregates across bands.
func (s *schedQueue) depths() (bands map[string]int, clients map[string]int) {
	bands = make(map[string]int, numBands)
	clients = make(map[string]int)
	s.mu.Lock()
	for i := range s.bands {
		b := &s.bands[i]
		bands[string(bandPriority(i))] = b.n
		for key, cq := range b.clients {
			if p := cq.pending(); p > 0 {
				clients[key] += p
			}
		}
	}
	s.mu.Unlock()
	return bands, clients
}
