package engine

// Crash-recovery, compaction, and observability tests for the WAL
// store, plus the engine-level Recover contract. The crash tests use
// closeAbrupt — the committer exits without the final flush, like a
// killed process — and byte-level corruption injection to simulate
// torn writes.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// openWAL opens a store over dir with test-friendly defaults, failing
// the test on error. The caller owns Close (or closeAbrupt).
func openWAL(t *testing.T, dir string, cfg WALConfig) *WALStore {
	t.Helper()
	cfg.Dir = dir
	s, err := OpenWALStore(cfg)
	if err != nil {
		t.Fatalf("OpenWALStore(%s): %v", dir, err)
	}
	return s
}

// sameOps asserts two listings are equal on every field replay must
// preserve.
func sameOps(t *testing.T, got, want []*core.Operation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("listing has %d ops, want %d\ngot:  %v\nwant: %v",
			len(got), len(want), listIDs(got), listIDs(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Status != w.Status {
			t.Errorf("op[%d] = {%s %s %s}, want {%s %s %s}",
				i, g.ID, g.Kind, g.Status, w.ID, w.Kind, w.Status)
		}
		if !g.CreatedAt.Equal(w.CreatedAt) || !g.UpdatedAt.Equal(w.UpdatedAt) {
			t.Errorf("op[%d] %s times = (%v, %v), want (%v, %v)",
				i, g.ID, g.CreatedAt, g.UpdatedAt, w.CreatedAt, w.UpdatedAt)
		}
	}
}

// TestWALStoreRecoversAfterCrash is the core durability claim: under
// WALSyncAlways every returned mutation survives an abrupt exit, so
// the recovered index is byte-for-byte the pre-crash index.
func TestWALStoreRecoversAfterCrash(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})

	for i := 0; i < 10; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second)))
	}
	for i := 0; i < 10; i += 2 {
		id := fmt.Sprintf("op-%02d", i)
		if err := s.Update(id, func(op *core.Operation) {
			op.Status = core.StatusDone
			op.UpdatedAt = t0.Add(time.Minute)
		}); err != nil {
			t.Fatalf("Update(%s): %v", id, err)
		}
	}
	s.Delete("op-03")
	s.Delete("op-07")
	want := listAll(t, s)

	s.closeAbrupt()

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
}

// TestWALStoreRecoversTornTail simulates a crash mid-append: garbage
// after the last complete frame. Recovery must truncate the segment
// back to its valid prefix and lose nothing that was committed.
func TestWALStoreRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	for i := 0; i < 5; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second)))
	}
	want := listAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The first open wrote segment 0. Tear its tail: a length prefix
	// promising more bytes than exist, the shape an interrupted
	// write+crash leaves behind.
	seg := filepath.Join(dir, walSegName(0))
	intact, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat segment: %v", err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment for tearing: %v", err)
	}
	if _, err := f.Write([]byte{0xEE, 0x01, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x42}); err != nil {
		t.Fatalf("tearing segment: %v", err)
	}
	f.Close()

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
	repaired, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat repaired segment: %v", err)
	}
	if repaired.Size() != intact.Size() {
		t.Errorf("repaired segment is %d bytes, want %d (truncated to valid prefix)",
			repaired.Size(), intact.Size())
	}
}

// TestWALStoreRecoversCorruptMiddle flips a byte inside an earlier
// record: the valid prefix ends there, and recovery must converge on
// exactly the operations before the flip — deterministic state, not
// best-effort scavenging.
func TestWALStoreRecoversCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	ops := make([]*core.Operation, 6)
	offset := 0 // byte offset of each op's frame in segment 0
	corruptAt := -1
	const corruptIdx = 3
	for i := range ops {
		ops[i] = mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second))
		if i == corruptIdx {
			corruptAt = offset
		}
		rec, err := encodeOpRecordV2(nil, ops[i])
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		offset += len(rec)
		s.Put(ops[i])
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seg := filepath.Join(dir, walSegName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	data[corruptAt+walFrameHeader+2] ^= 0xFF // payload bit-flip → CRC mismatch
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("writing corrupted segment: %v", err)
	}

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	got := listAll(t, r)
	if len(got) != corruptIdx {
		t.Fatalf("recovered %d ops (%v), want the %d before the corrupt frame",
			len(got), listIDs(got), corruptIdx)
	}
	for _, op := range got {
		if _, err := r.Get(op.ID); err != nil {
			t.Errorf("Get(%s): %v", op.ID, err)
		}
	}
}

// TestWALStoreFlushBarrier: group mode logs transitions asynchronously,
// but Flush is a hard durability barrier — everything staged before it
// must survive a crash immediately after it.
func TestWALStoreFlushBarrier(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncGroup})
	s.Put(mkOp("a", t0))
	if err := s.Update("a", func(op *core.Operation) {
		op.Status = core.StatusDone
		op.UpdatedAt = t0.Add(time.Minute)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.closeAbrupt()

	r := openWAL(t, dir, WALConfig{Sync: WALSyncGroup})
	defer r.Close()
	got, err := r.Get("a")
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got.Status != core.StatusDone {
		t.Errorf("recovered status = %s, want done (flushed update lost)", got.Status)
	}
}

// waitDetached polls until the committer has detached the batch whose
// ticket is g, reporting false after 5s.
func waitDetached(w *wal, g *walGen) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.batch.mu.Lock()
		detached := w.batch.gen != g
		w.batch.mu.Unlock()
		if detached {
			return true
		}
	}
	return false
}

// TestWALStoreFlushWaitsForDetachedBatch: Flush is a barrier even when
// the committer has already detached the batch holding the caller's
// record and is still writing it. Under a 1-byte segment bound every
// commit rotates, and opening the next segment takes segMu before the
// batch's ticket resolves, so holding segMu keeps the batch detached
// but uncommitted for as long as the test needs.
func TestWALStoreFlushWaitsForDetachedBatch(t *testing.T) {
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncNone, SegmentBytes: 1})
	defer s.Close()
	w := s.log

	w.segMu.Lock()
	rec := appendDeleteRecord(nil, "a")
	g := w.enqueue(&rec, 1)
	if !waitDetached(w, g) {
		w.segMu.Unlock()
		t.Fatal("committer never detached the staged batch")
	}

	committed := make(chan bool, 1)
	go func() {
		if err := s.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		select {
		case <-g.done:
			committed <- true
		default:
			committed <- false
		}
	}()
	var ok bool
	select {
	case ok = <-committed: // Flush returned while the committer was blocked
		w.segMu.Unlock()
	case <-time.After(200 * time.Millisecond):
		w.segMu.Unlock()
		ok = <-committed
	}
	if !ok {
		t.Error("Flush returned before the detached batch was committed")
	}
}

// TestWALGroupLoneWriterDoesNotWaitForWindow: group commit is paced by
// fsync latency, so a lone writer's Put returns after one commit — the
// deprecated GroupWindow setting, here a minute, is ignored.
func TestWALGroupLoneWriterDoesNotWaitForWindow(t *testing.T) {
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, GroupWindow: time.Minute})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		s.Put(mkOp("a", time.Unix(1000, 0)))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("group-mode Put still waiting after 5s: the committer is sleeping out a window")
	}
}

// TestWALGroupCommitAmortisesConcurrentWriters: batching comes from
// writers that board while a commit is in flight. Holding segMu keeps
// commit #1 detached but unresolved (the 1-byte segment bound makes it
// rotate), so every writer enqueued meanwhile must board one batch
// that the next commit writes whole.
func TestWALGroupCommitAmortisesConcurrentWriters(t *testing.T) {
	const writers = 16
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, SegmentBytes: 1})
	defer s.Close()
	w := s.log

	w.segMu.Lock()
	unlock := sync.OnceFunc(w.segMu.Unlock)
	defer unlock()
	first := appendDeleteRecord(nil, "first")
	g0 := w.enqueue(&first, 1)
	if !waitDetached(w, g0) {
		t.Fatal("committer never detached the first batch")
	}

	tickets := make([]*walGen, writers)
	var wg sync.WaitGroup
	for i := range tickets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := appendDeleteRecord(nil, fmt.Sprintf("op-%02d", i))
			tickets[i] = w.enqueue(&rec, 1)
		}()
	}
	wg.Wait()
	g := tickets[0]
	if g == nil || g == g0 {
		t.Fatalf("writer ticket = %p, want a fresh generation (first batch %p)", g, g0)
	}
	for i, ti := range tickets {
		if ti != g {
			t.Errorf("writer %d ticket = %p, want the shared %p", i, ti, g)
		}
	}

	unlock()
	select {
	case <-g.done:
	case <-time.After(5 * time.Second):
		t.Fatal("shared ticket never resolved after the first commit was released")
	}
	if g.err != nil {
		t.Errorf("shared commit error: %v", g.err)
	}
	w.stats.mu.Lock()
	sizes := append([]int(nil), w.stats.sizes[:w.stats.count]...)
	w.stats.mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != writers {
		t.Errorf("recorded batch sizes = %v, want [1 %d]", sizes, writers)
	}
}

// TestWALStoreCompaction drives segment rotation until the committer
// folds closed segments into a snapshot, then proves the snapshot is
// sufficient: a reopen recovers the full state from it plus the
// surviving suffix.
func TestWALStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	// Every commit overflows the 1-byte segment bound, so each Put
	// rotates; two closed segments trigger compaction.
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, SegmentBytes: 1, MaxSegments: 2})
	const n = 12
	for i := 0; i < n; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second)))
	}
	// Compaction runs asynchronously; wait for a snapshot to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.wal")); len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared after 12 rotations with MaxSegments=2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := listAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) >= n {
		t.Errorf("%d segments survive after compaction, want far fewer than %d", len(segs), n)
	}

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
}

// TestWALStoreStats exercises the observability counters end to end:
// the store reports them and Engine.Stats surfaces them when its store
// is durable.
func TestWALStoreStats(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	for i := 0; i < 4; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), t0))
	}
	ws := s.WALStats()
	if ws.Segments < 1 {
		t.Errorf("WALStats.Segments = %d, want >= 1", ws.Segments)
	}
	if ws.BatchP50 < 1 {
		t.Errorf("WALStats.BatchP50 = %v, want >= 1 after committed batches", ws.BatchP50)
	}
	if ws.FsyncsPerSec <= 0 {
		t.Errorf("WALStats.FsyncsPerSec = %v, want > 0 under WALSyncAlways", ws.FsyncsPerSec)
	}

	e := New(Config{Workers: 1, Store: s})
	st := e.Stats()
	if !st.Durable {
		t.Error("Engine.Stats().Durable = false with a WAL store")
	}
	if st.WALSegments != ws.Segments {
		t.Errorf("Engine.Stats().WALSegments = %d, want %d", st.WALSegments, ws.Segments)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	mem := New(Config{Workers: 1})
	defer mem.Shutdown(context.Background())
	if mem.Stats().Durable {
		t.Error("Engine.Stats().Durable = true with an in-memory store")
	}
}

// TestOpenWALStoreValidates rejects a missing directory and an unknown
// sync mode up front.
func TestOpenWALStoreValidates(t *testing.T) {
	if _, err := OpenWALStore(WALConfig{}); err == nil {
		t.Error("OpenWALStore without Dir succeeded, want error")
	}
	if _, err := OpenWALStore(WALConfig{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Error("OpenWALStore with bad sync mode succeeded, want error")
	}
}

// TestEngineRecover is the boot-time contract: queued operations found
// in a recovered store are resubmitted and run; operations that were
// running when the old process died are failed with ErrInterrupted.
func TestEngineRecover(t *testing.T) {
	t0 := time.Unix(1000, 0)
	store := NewShardedStore(4)

	queued := []string{"q-old", "q-mid", "q-new"}
	for i, id := range queued {
		op := mkOp(id, t0.Add(time.Duration(i)*time.Second))
		op.Kind = "echo"
		store.Put(op)
	}
	running := mkOp("was-running", t0)
	running.Kind = "echo"
	running.Status = core.StatusRunning
	store.Put(running)
	done := mkOp("already-done", t0)
	done.Kind = "echo"
	done.Status = core.StatusDone
	store.Put(done)

	e := New(Config{Workers: 2, Store: store})
	defer e.Shutdown(context.Background())
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.ID, nil
	})

	requeued, interrupted, err := e.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if requeued != len(queued) || interrupted != 1 {
		t.Fatalf("Recover = (%d requeued, %d interrupted), want (%d, 1)",
			requeued, interrupted, len(queued))
	}

	for _, id := range queued {
		op := waitStatus(t, e, id)
		if op.Status != core.StatusDone {
			t.Errorf("requeued %s finished as %s, want done (err=%s)", id, op.Status, op.Error)
		}
	}
	op, err := e.Get("was-running")
	if err != nil {
		t.Fatal(err)
	}
	if op.Status != core.StatusFailed || op.Error != core.ErrInterrupted.Error() {
		t.Errorf("was-running = (%s, %q), want (failed, %q)", op.Status, op.Error, core.ErrInterrupted)
	}
	if op, _ := e.Get("already-done"); op.Status != core.StatusDone {
		t.Errorf("already-done touched by Recover: %s", op.Status)
	}
}

// TestEngineRecoverOverflow: more queued survivors than the queue can
// hold. The overflow must fail loudly as interrupted, never block boot
// or vanish. With one worker parked on a blocking handler at most
// queue-capacity+1 operations can be requeued; the rest must be
// interrupted.
func TestEngineRecoverOverflow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	store := NewShardedStore(4)
	const n = 6
	for i := 0; i < n; i++ {
		op := mkOp(fmt.Sprintf("q-%d", i), t0.Add(time.Duration(i)*time.Second))
		op.Kind = "block"
		store.Put(op)
	}

	e := New(Config{Workers: 1, QueueDepth: 1, Store: store})
	release := make(chan struct{})
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	requeued, interrupted, err := e.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if requeued+interrupted != n {
		t.Fatalf("Recover = (%d, %d), want counts summing to %d", requeued, interrupted, n)
	}
	if requeued < 1 || requeued > 2 {
		t.Errorf("requeued = %d, want 1 or 2 (queue depth 1, one blocked worker)", requeued)
	}
	if interrupted < n-2 {
		t.Errorf("interrupted = %d, want >= %d", interrupted, n-2)
	}
	close(release)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestEngineRecoverIgnoresShedThreshold: Recover is bounded by queue
// capacity, not by the shed threshold. Recovered work was admitted
// once already; shedding it would only fail it. With the single worker
// parked on the first op, depth reaches 3, past shedAt 2.
func TestEngineRecoverIgnoresShedThreshold(t *testing.T) {
	t0 := time.Unix(1000, 0)
	store := NewShardedStore(4)
	const n = 4
	for i := 0; i < n; i++ {
		op := mkOp(fmt.Sprintf("q-%d", i), t0.Add(time.Duration(i)*time.Second))
		op.Kind = "block"
		store.Put(op)
	}

	e := New(Config{Workers: 1, QueueDepth: n, ShedThreshold: 0.5, Store: store})
	release := make(chan struct{})
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	requeued, interrupted, err := e.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if requeued != n || interrupted != 0 {
		t.Errorf("Recover = (%d requeued, %d interrupted), want (%d, 0)", requeued, interrupted, n)
	}
	close(release)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// FuzzWALReplay fuzzes the codec's central promise through the
// per-file replay recovery runs, with two partitions so the parallel
// decode and apply are exercised: replay never panics, the reported
// valid prefix is within bounds, and replaying that prefix alone is
// clean and converges on the identical state.
func FuzzWALReplay(f *testing.F) {
	t0 := time.Unix(1000, 0)
	var valid []byte
	for i := 0; i < 3; i++ {
		var err error
		if valid, err = encodeOpRecordV2(valid, mkOp(fmt.Sprintf("op-%d", i), t0)); err != nil {
			f.Fatal(err)
		}
	}
	done := mkOp("op-0", t0)
	done.Status = core.StatusDone
	done.UpdatedAt = t0.Add(time.Second)
	valid = encodeDeltaRecordV2(valid, done)
	valid = appendDeleteRecord(valid, "op-1")
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[11] ^= 0x80 // checksum mismatch in the first record
	f.Add(flipped)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // impossible length
	// A CRC-valid frame of a retired v1 record type ends the prefix.
	f.Add(appendWALFrame(append([]byte(nil), valid...), 1, []byte(`{"id":"op-9"}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := newReplayPartitions(2)
		_, n, err := p.replayFile(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix %d out of bounds [0, %d]", n, len(data))
		}
		if err == nil && n != len(data) {
			t.Fatalf("clean replay consumed %d of %d bytes", n, len(data))
		}
		// The prefix property recovery depends on: truncating to the
		// reported prefix yields a clean replay with the same state.
		q := newReplayPartitions(2)
		_, m, err2 := q.replayFile(data[:n])
		if err2 != nil || m != n {
			t.Fatalf("replay of valid prefix = (%d, %v), want (%d, nil)", m, err2, n)
		}
		state, again := p.merge(), q.merge()
		if len(again) != len(state) {
			t.Fatalf("prefix replay state has %d ops, want %d", len(again), len(state))
		}
		for id, op := range state {
			got, ok := again[id]
			if !ok || got.Status != op.Status || !got.UpdatedAt.Equal(op.UpdatedAt) {
				t.Fatalf("prefix replay diverges on %s", id)
			}
		}
	})
}
