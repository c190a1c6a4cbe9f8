package engine

// The write-ahead log behind WALStore: an append-only sequence of
// framed records (see walcodec.go) in rotating segment files, made
// cheap by group commit.
//
// The perf-critical shape mirrors the watch hub's detach-then-notify
// protocol, and lockscope polices it the same way: writers only ever
// append encoded records to an in-memory staging buffer (walBatch)
// under its mutex — never touching the file — and a single committer
// goroutine detaches the buffer under that mutex, then performs the
// one write+fsync for the whole batch strictly after the lock is
// released. Writers that need durability park on the batch's commit
// ticket (walGen), which the committer resolves once the fsync lands;
// one disk flush is amortised across every writer that boarded the
// batch.
//
// Batching is paced by fsync latency alone: the committer commits
// whatever is staged the moment it wakes, and writers that arrive
// while one fsync is in flight board the next batch. A lone writer
// pays one fsync; a busy fleet fills batches by itself.

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/core"
)

// WALSyncMode selects when the committer calls fsync and who waits for
// it; see the WALConfig.Sync docs for the durability each mode buys.
type WALSyncMode string

const (
	// WALSyncAlways fsyncs every batch and makes every mutation —
	// puts, updates, deletes — wait for its commit ticket. Maximum
	// durability, one fsync round-trip on every write path.
	WALSyncAlways WALSyncMode = "always"
	// WALSyncGroup (the default) writes and fsyncs every record
	// staged since the previous commit as one batch; records staged
	// during an fsync board the next one. Admissions (Put/PutBatch)
	// wait for durability; transitions (Update/Delete) are logged
	// asynchronously — recovery semantics make the loss window
	// principled (see docs/persistence.md).
	WALSyncGroup WALSyncMode = "group"
	// WALSyncNone never fsyncs and nobody waits; durability is
	// whatever the OS page cache survives. For tests and benchmarks.
	WALSyncNone WALSyncMode = "none"
)

// Valid reports whether m names a known sync mode.
func (m WALSyncMode) Valid() bool {
	switch m {
	case WALSyncAlways, WALSyncGroup, WALSyncNone:
		return true
	}
	return false
}

// walGen is one commit generation's ticket: every writer that appended
// into the generation's batch shares it. done closes after the batch's
// write+fsync completes; err is written before the close and read only
// after it.
type walGen struct {
	done chan struct{}
	err  error
}

// walBatch is the group-commit staging buffer. Its mutex is policed by
// lockscope as a nested-acquisition lock: writers may take it while
// holding a storeShard lock (that nesting is what keeps log order equal
// to publish order), but nothing may block or perform file I/O while
// holding it — the committer detaches buf and gen under the lock and
// does the write+fsync after releasing it.
type walBatch struct {
	mu sync.Mutex
	// buf accumulates encoded frames; n counts the records in them.
	buf []byte
	n   int
	// gen is the current generation's ticket, created lazily by the
	// first writer to board the batch.
	gen *walGen
	// last is the most recently detached generation, which the
	// committer may still be writing; flush waits on it when nothing
	// new is staged.
	last *walGen
}

// walStatsCounters aggregates the observability counters the health
// endpoint surfaces. Plain mutex over a tiny ring; not a policed type.
type walStatsCounters struct {
	// fsyncs feeds the fsyncs-per-second rate; drainMeter already
	// implements exactly the trailing-window counter needed.
	fsyncs drainMeter

	mu sync.Mutex
	// sizes is a ring of recent commit batch sizes (records per
	// commit) from which the p50 is computed on demand.
	sizes [64]int
	next  int
	count int
}

// recordBatch notes one committed batch of n records.
func (c *walStatsCounters) recordBatch(n int) {
	c.mu.Lock()
	c.sizes[c.next] = n
	c.next = (c.next + 1) % len(c.sizes)
	if c.count < len(c.sizes) {
		c.count++
	}
	c.mu.Unlock()
}

// batchP50 returns the median records-per-commit over the retained
// ring, 0 before the first commit.
func (c *walStatsCounters) batchP50() float64 {
	c.mu.Lock()
	n := c.count
	recent := make([]int, n)
	for i := 0; i < n; i++ {
		recent[i] = c.sizes[i]
	}
	c.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Ints(recent)
	if n%2 == 1 {
		return float64(recent[n/2])
	}
	return float64(recent[n/2-1]+recent[n/2]) / 2
}

// WALStats is the point-in-time WAL snapshot surfaced through
// Engine.Stats and /v1/health.
type WALStats struct {
	// Segments is the number of live log segment files (closed plus
	// the one being appended to).
	Segments int
	// BatchP50 is the median records per commit over recent commits —
	// the direct measure of how much work each fsync amortises.
	BatchP50 float64
	// FsyncsPerSec is the observed fsync rate over the trailing
	// window.
	FsyncsPerSec float64
}

// wal owns the on-disk log: the staging buffer, the committer
// goroutine, segment rotation, and snapshot compaction.
type wal struct {
	dir      string
	mode     WALSyncMode
	segBytes int64
	maxSegs  int
	clock    func() time.Time

	batch walBatch
	// kick wakes the committer; capacity 1 so boarding writers can
	// always try-send without blocking (a pending kick is as good as
	// many).
	kick chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	// die is the crash-simulation hook: closing it makes the committer
	// return without the final flush, exactly as if the process had
	// been killed. Tests only.
	die     chan struct{}
	dieOnce sync.Once
	done    chan struct{}
	// closeErr is the final-flush outcome, written by the committer
	// before done closes.
	closeErr error

	// Committer-goroutine-owned; no locks.
	f        *os.File
	segIndex int
	segSize  int64
	// spare recycles the detached batch buffer across commits.
	spare []byte

	// segMu guards the segment bookkeeping shared between the
	// committer (rotation appends) and the compactor (pruning
	// removes).
	segMu sync.Mutex
	segs  []int // sorted live segment indexes, including the open one
	// snapSeg is the highest segment index covered by the newest
	// snapshot; -1 before any snapshot exists.
	snapSeg int

	// compacting serialises snapshot compactions; compactReq asks the
	// committer to force one (the janitor sets it after a large
	// sweep).
	compacting atomic.Bool
	compactReq atomic.Bool
	compactWG  sync.WaitGroup
	// snapshotFn dumps the full store state for compaction; installed
	// by WALStore before the committer starts.
	snapshotFn func() []*core.Operation

	stats walStatsCounters
}

func walSegName(i int) string  { return fmt.Sprintf("wal-%08d.log", i) }
func walSnapName(i int) string { return fmt.Sprintf("snap-%08d.wal", i) }

// newWAL builds the log over an already-recovered directory layout and
// opens a fresh segment; the caller installs snapshotFn and then calls
// start.
func newWAL(cfg WALConfig, layout walLayout) (*wal, error) {
	w := &wal{
		dir:      cfg.Dir,
		mode:     cfg.Sync,
		segBytes: cfg.SegmentBytes,
		maxSegs:  cfg.MaxSegments,
		clock:    cfg.Clock,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		die:      make(chan struct{}),
		done:     make(chan struct{}),
		segs:     layout.segs,
		snapSeg:  layout.snapSeg,
	}
	if err := w.openSegment(layout.maxSeg + 1); err != nil {
		return nil, err
	}
	return w, nil
}

// start launches the committer; the wal accepts enqueues from this
// point on.
func (w *wal) start() {
	go w.committer()
}

// openSegment creates segment i and makes it the append target.
// Committer goroutine (or pre-start setup) only.
func (w *wal) openSegment(i int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, walSegName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment %d: %w", i, err)
	}
	w.f = f
	w.segIndex = i
	w.segSize = 0
	w.segMu.Lock()
	w.segs = append(w.segs, i)
	w.segMu.Unlock()
	return nil
}

// enqueue boards the already-framed records in buf (recs counts them)
// onto the current batch and wakes the committer, returning the
// generation ticket the caller may wait on. Callers may hold a
// storeShard lock: enqueue only appends to the staging buffer; all file
// I/O happens on the committer goroutine. With no log or nothing
// encoded it is a no-op returning a nil ticket.
func (w *wal) enqueue(buf *[]byte, recs int) *walGen {
	if w == nil || buf == nil || len(*buf) == 0 {
		return nil
	}
	b := &w.batch
	b.mu.Lock()
	if b.gen == nil {
		b.gen = &walGen{done: make(chan struct{})}
	}
	g := b.gen
	b.buf = append(b.buf, *buf...)
	b.n += recs
	b.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return g
}

// admitWait parks the caller until its admission record is durable —
// the group-commit ticket wait — under the modes that promise durable
// admission. Under WALSyncNone nobody waits, and a nil ticket (no log,
// nothing staged) has nothing to wait for.
func (w *wal) admitWait(g *walGen) {
	if g == nil || w.mode == WALSyncNone {
		return
	}
	w.waitCommit(g)
}

// transitionWait parks the caller for a transition record only under
// WALSyncAlways; group mode logs transitions asynchronously (recovery
// resubmits or fails what the loss window eats — see
// docs/persistence.md). A nil ticket returns at once.
func (w *wal) transitionWait(g *walGen) {
	if g == nil || w.mode != WALSyncAlways {
		return
	}
	w.waitCommit(g)
}

// waitCommit blocks until the generation's commit completes. Commit
// errors are logged once by the committer; waiters just proceed — the
// Store interface has no error channel for writes, and the in-memory
// state (the API's source of truth until restart) already holds the
// mutation.
func (w *wal) waitCommit(g *walGen) {
	<-g.done
}

// flush forces a commit of everything staged so far and waits for it,
// returning the commit's write/fsync outcome. With nothing new staged
// it waits on the last detached generation, which the committer may
// still be writing. Generations commit in order, so either ticket
// covers every record staged before the call.
func (w *wal) flush() error {
	b := &w.batch
	b.mu.Lock()
	g := b.gen
	if g == nil {
		g = b.last
	}
	b.mu.Unlock()
	if g == nil {
		return nil
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-g.done
	return g.err
}

// close flushes staged records, stops the committer, waits for any
// in-flight compaction, and closes the segment file.
func (w *wal) close() error {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	w.compactWG.Wait()
	return w.closeErr
}

// abort is the crash-simulation close: the committer exits immediately,
// dropping whatever is staged but not yet committed, and the segment
// file is left un-flushed — the closest a live process gets to
// kill -9. Tests only.
func (w *wal) abort() {
	w.dieOnce.Do(func() { close(w.die) })
	<-w.done
	w.compactWG.Wait()
}

// committer is the single goroutine that turns staged batches into
// write+fsync calls. Waking on a kick, it commits whatever is staged
// at once: that one fsync resolves every boarded ticket, and writers
// that arrive while it runs leave a kick behind for the next batch.
func (w *wal) committer() {
	defer close(w.done)
	for {
		select {
		case <-w.die:
			return
		case <-w.stop:
			w.closeErr = w.finalize()
			return
		case <-w.kick:
		}
		w.commit()
		w.maybeCompact()
	}
}

// commit detaches the staged batch and performs its write+fsync. The
// detach happens under the batch lock; the file I/O strictly after its
// release — the invariant lockscope's file-I/O rule enforces.
func (w *wal) commit() {
	b := &w.batch
	b.mu.Lock()
	if b.n == 0 {
		b.mu.Unlock()
		return
	}
	buf, gen, n := b.buf, b.gen, b.n
	b.buf = w.spare[:0]
	b.gen = nil
	b.last = gen
	b.n = 0
	b.mu.Unlock()

	err := w.writeAndSync(buf)
	w.spare = buf[:0]
	// Counted before the ticket resolves, so a waiter sees its commit.
	w.stats.recordBatch(n)
	gen.err = err
	close(gen.done)
	if err != nil {
		// The Store interface has no write-error channel, so this log
		// line is the operator's signal that durability is degraded;
		// the in-memory state remains correct until restart.
		log.Printf("engine: wal commit of %d records failed: %v", n, err)
	}
}

// writeAndSync appends one batch to the open segment, fsyncing per the
// sync mode, and rotates the segment once it outgrows its bound.
func (w *wal) writeAndSync(buf []byte) error {
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: appending to segment %d: %w", w.segIndex, err)
	}
	w.segSize += int64(len(buf))
	if w.mode != WALSyncNone {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync segment %d: %w", w.segIndex, err)
		}
		w.stats.fsyncs.record(w.clock())
	}
	if w.segSize >= w.segBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	return nil
}

// rotate closes the open segment and starts the next one.
func (w *wal) rotate() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %d: %w", w.segIndex, err)
	}
	return w.openSegment(w.segIndex + 1)
}

// maybeCompact decides, after a commit, whether to fold the closed
// segments into a snapshot: either enough of them accumulated
// (maxSegs), or a sweep requested it (compactReq). One compaction runs
// at a time, on its own goroutine so the committer keeps absorbing
// writes while the snapshot is dumped.
func (w *wal) maybeCompact() {
	if w.compacting.Load() {
		return
	}
	forced := w.compactReq.Load()
	w.segMu.Lock()
	closed := 0
	for _, s := range w.segs {
		if s != w.segIndex && s > w.snapSeg {
			closed++
		}
	}
	w.segMu.Unlock()
	if !forced && closed < w.maxSegs {
		return
	}
	if forced && closed == 0 && w.segSize == 0 {
		// Nothing to fold: the request is moot.
		w.compactReq.Store(false)
		return
	}
	if forced && w.segSize > 0 {
		// Force the open segment closed so the snapshot can cover the
		// swept deletions sitting in it.
		if err := w.rotate(); err != nil {
			log.Printf("engine: wal rotation for compaction failed: %v", err)
			return
		}
	}
	w.compactReq.Store(false)
	through := w.segIndex - 1
	if through <= w.snapSegLoad() {
		return
	}
	if !w.compacting.CompareAndSwap(false, true) {
		return
	}
	w.compactWG.Add(1)
	go w.compact(through)
}

func (w *wal) snapSegLoad() int {
	w.segMu.Lock()
	defer w.segMu.Unlock()
	return w.snapSeg
}

// compact dumps the full store state to a snapshot covering every
// segment up to and including through, then prunes the segments and
// snapshots it obsoletes. The memory state is always ahead of the log,
// so a snapshot taken after the covered segments closed is a superset
// of them; replay idempotency makes the overlap with newer segments
// harmless.
func (w *wal) compact(through int) {
	defer w.compactWG.Done()
	defer w.compacting.Store(false)
	ops := w.snapshotFn()
	if err := writeWALSnapshot(w.dir, through, ops); err != nil {
		log.Printf("engine: wal snapshot through segment %d failed: %v", through, err)
		return
	}
	w.segMu.Lock()
	oldSnap := w.snapSeg
	w.snapSeg = through
	kept := w.segs[:0]
	var drop []int
	for _, s := range w.segs {
		if s <= through {
			drop = append(drop, s)
			continue
		}
		kept = append(kept, s)
	}
	w.segs = kept
	w.segMu.Unlock()
	for _, s := range drop {
		if err := os.Remove(filepath.Join(w.dir, walSegName(s))); err != nil {
			log.Printf("engine: wal pruning segment %d: %v", s, err)
		}
	}
	if oldSnap >= 0 && oldSnap != through {
		if err := os.Remove(filepath.Join(w.dir, walSnapName(oldSnap))); err != nil {
			log.Printf("engine: wal pruning snapshot %d: %v", oldSnap, err)
		}
	}
}

// writeWALSnapshot atomically installs a snapshot of ops covering
// segments <= through: written to a temp file, fsynced, renamed into
// place, directory fsynced — the standard crash-safe install sequence.
func writeWALSnapshot(dir string, through int, ops []*core.Operation) error {
	tmpPath := filepath.Join(dir, "snap.tmp")
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec []byte
	for _, op := range ops {
		var err error
		rec, err = encodeOpRecordV2(rec[:0], op)
		if err != nil {
			// Skip the unserialisable op rather than abort the whole
			// snapshot; it was never durable to begin with.
			log.Printf("engine: wal snapshot skipping %s: %v", op.ID, err)
			continue
		}
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, walSnapName(through))); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so entry creations and renames are
// themselves durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// requestCompact asks the committer to fold the log into a snapshot at
// its next convenient point; the store calls it after a large terminal
// sweep so deleted history stops occupying replay time. A no-op with
// no log.
func (w *wal) requestCompact() {
	if w == nil {
		return
	}
	w.compactReq.Store(true)
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// finalize is the clean-shutdown path: commit anything staged, fsync
// regardless of mode (a clean close should be durable even under
// none/group), and close the segment.
func (w *wal) finalize() error {
	w.commit()
	var err error
	if w.f != nil {
		if serr := w.f.Sync(); serr != nil {
			err = serr
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// snapshotStats assembles the health-endpoint counters.
func (w *wal) snapshotStats() WALStats {
	w.segMu.Lock()
	segs := len(w.segs)
	w.segMu.Unlock()
	return WALStats{
		Segments:     segs,
		BatchP50:     w.stats.batchP50(),
		FsyncsPerSec: w.stats.fsyncs.rate(w.clock()),
	}
}
