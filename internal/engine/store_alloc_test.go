package engine

// Allocation regression tests pinning the read-path guarantees the
// copy-on-write refactor bought: Get never allocates (it returns the
// published snapshot pointer), and a List page's allocations depend on
// the limit, never on how many operations the store holds. These run
// as ordinary tests — not benchmarks — so `go test ./...` fails the
// moment a change sneaks a clone or a sort back into the hot path.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// allocImpls enumerates the implementations whose allocation profile
// is pinned; the sharded store runs at a fixed multi-shard count so
// the merge path is exercised even on single-core hosts.
func allocImpls() []struct {
	name string
	mk   func() Store
} {
	return []struct {
		name string
		mk   func() Store
	}{
		{"mem", NewMemStore}, // one shard: no merge
		{"sharded-8", func() Store { return NewShardedStore(8) }},
	}
}

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc pinning runs in non-race builds")
	}
}

func TestGetIsZeroAlloc(t *testing.T) {
	skipIfRace(t)
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk()
			ops := prepopulate(s, 1024)
			id := ops[len(ops)/2].ID
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := s.Get(id); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Get allocates %.1f objects/op, want 0 (must return the published snapshot)", allocs)
			}
		})
	}
}

func TestListAllocsIndependentOfStoreSize(t *testing.T) {
	skipIfRace(t)
	const limit = 50
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			perSize := make(map[int]float64)
			for _, size := range []int{1_000, 10_000} {
				s := impl.mk()
				prepopulate(s, size)
				perSize[size] = testing.AllocsPerRun(200, func() {
					page, err := s.List(ListQuery{Limit: limit})
					if err != nil {
						t.Fatal(err)
					}
					if len(page) != limit {
						t.Fatalf("List returned %d ops, want %d", len(page), limit)
					}
				})
			}
			if perSize[1_000] != perSize[10_000] {
				t.Errorf("List(limit=%d) allocations scale with store size: %.1f at 1k ops vs %.1f at 10k ops",
					limit, perSize[1_000], perSize[10_000])
			}
			// The absolute count matters too: a page is the output
			// slice plus the merge scaffolding, nowhere near one
			// allocation per element.
			if perSize[10_000] > 4 {
				t.Errorf("List(limit=%d) costs %.1f allocations, want <= 4 (output slice + merge state)",
					limit, perSize[10_000])
			}
		})
	}
}

// TestListFilteredBytesIndependentOfStoreSize pins the chunked walk of
// status-filtered queries: a page copies index chunks sized by the
// page, never a shard's whole candidate range, so the bytes a page
// allocates do not grow with the store. Every other op is failed, so
// the merge meets its 50 matches within each shard's first chunk
// whatever the hash spread, and the count is exact.
func TestListFilteredBytesIndependentOfStoreSize(t *testing.T) {
	skipIfRace(t)
	const limit = 50
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			perSize := make(map[int]uint64)
			for _, size := range []int{1_000, 10_000} {
				s := impl.mk()
				prepopulateStatuses(s, size, 2)
				perSize[size] = allocBytesPerRun(200, func() {
					page, err := s.List(ListQuery{Status: core.StatusFailed, Limit: limit})
					if err != nil {
						t.Fatal(err)
					}
					if len(page) != limit {
						t.Fatalf("List returned %d ops, want %d", len(page), limit)
					}
				})
			}
			if perSize[1_000] != perSize[10_000] {
				t.Errorf("filtered List(limit=%d) bytes scale with store size: %d B at 1k ops vs %d B at 10k ops",
					limit, perSize[1_000], perSize[10_000])
			}
		})
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates, measured with GOMAXPROCS at 1 after a
// warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// prepopulateStatuses fills s with n operations, one in every `every`
// of them failed and the rest done, and returns them.
func prepopulateStatuses(s Store, n, every int) []*core.Operation {
	ops := statusOps(time.Unix(1000, 0), n, every)
	s.PutBatch(ops)
	return ops
}

// statusOps builds n operations created a millisecond apart from t0,
// one in every `every` of them failed and the rest done.
func statusOps(t0 time.Time, n, every int) []*core.Operation {
	ops := make([]*core.Operation, n)
	for i := range ops {
		ops[i] = mkStatusOp(t0.Add(time.Duration(i)*time.Millisecond), i%every == 0)
	}
	return ops
}

func mkStatusOp(at time.Time, failed bool) *core.Operation {
	status := core.StatusDone
	if failed {
		status = core.StatusFailed
	}
	return &core.Operation{ID: core.NewID(), Kind: "test", Status: status, CreatedAt: at, UpdatedAt: at}
}

func TestListPagedWalkMatchesUnbounded(t *testing.T) {
	// Property check at a size no hand-written case covers: paging
	// through 10k random-ID operations in 97-op pages must reproduce
	// the unbounded listing exactly, on every implementation — with
	// and without a status filter. One op in seven is failed, so the
	// filtered pages refill their chunks mid-page.
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk()
			prepopulateStatuses(s, 10_000, 7)
			for _, status := range []core.Status{"", core.StatusFailed} {
				full, err := s.List(ListQuery{Status: status})
				if err != nil {
					t.Fatal(err)
				}
				if status != "" && (len(full) == 0 || len(full) == 10_000) {
					t.Fatalf("status %q matches %d of 10000 ops; the filter is not exercised", status, len(full))
				}
				pagedIDs := walkPages(t, s, status, 97)
				if len(pagedIDs) != len(full) {
					t.Fatalf("status %q: paged walk saw %d ops, unbounded List saw %d", status, len(pagedIDs), len(full))
				}
				for i, op := range full {
					if pagedIDs[i] != op.ID {
						t.Fatalf("status %q: paged walk diverges at %d: %s != %s", status, i, pagedIDs[i], op.ID)
					}
				}
			}
		})
	}
}

// walkPages pages through the listing selected by status and returns
// the IDs in the order the pages delivered them.
func walkPages(t *testing.T, s Store, status core.Status, limit int) []string {
	t.Helper()
	var ids []string
	cursor := ""
	for {
		page, err := s.List(ListQuery{Status: status, Cursor: cursor, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			return ids
		}
		for _, op := range page {
			ids = append(ids, op.ID)
		}
		cursor = page[len(page)-1].ID
	}
}

// TestListFilteredWalkUnderConcurrentWrites walks status-filtered
// pages while a writer inserts newer operations and deletes and
// re-inserts old done ones, which shifts the index positions below
// every chunk the walk has copied. Each chunk refill must find its
// place again by key: every page is strictly newest-first, the walk
// never repeats or reorders an op, and it delivers exactly the failed
// ops that existed before it began (plus, at the top, any newer ones
// that landed before the first page). Meant for -race, which `make
// test` uses.
func TestListFilteredWalkUnderConcurrentWrites(t *testing.T) {
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk()
			ops := prepopulateStatuses(s, 5_000, 10)

			stop := make(chan struct{})
			var writes atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				next := ops[len(ops)-1].CreatedAt
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					next = next.Add(time.Millisecond)
					s.Put(mkStatusOp(next, i%3 == 0))
					if old := ops[i%len(ops)]; old.Status == core.StatusDone {
						if (i/len(ops))%2 == 0 {
							s.Delete(old.ID)
						} else {
							s.Put(old)
						}
					}
					writes.Add(1)
				}
			}()
			defer func() {
				close(stop)
				wg.Wait()
			}()
			for writes.Load() < 100 {
				runtime.Gosched()
			}

			for round := 0; round < 10; round++ {
				want, err := s.List(ListQuery{Status: core.StatusFailed})
				if err != nil {
					t.Fatal(err)
				}
				before := make(map[string]bool, len(want))
				for _, op := range want {
					before[op.ID] = true
				}
				var walked []*core.Operation
				cursor := ""
				for {
					page, err := s.List(ListQuery{Status: core.StatusFailed, Cursor: cursor, Limit: 97})
					if err != nil {
						t.Fatal(err)
					}
					if len(page) == 0 {
						break
					}
					walked = append(walked, page...)
					cursor = page[len(page)-1].ID
				}

				for _, seq := range [][]*core.Operation{want, walked} {
					for i := 1; i < len(seq); i++ {
						if !newerThan(seq[i-1], seq[i]) {
							t.Fatalf("round %d: listing not strictly newest-first at %d: %s (%v) then %s (%v)",
								round, i, seq[i-1].ID, seq[i-1].CreatedAt, seq[i].ID, seq[i].CreatedAt)
						}
					}
				}
				var old []string
				for _, op := range walked {
					if before[op.ID] {
						old = append(old, op.ID)
					}
				}
				if len(old) != len(want) {
					t.Fatalf("round %d: walk delivered %d of the %d failed ops present before it", round, len(old), len(want))
				}
				for i, op := range want {
					if old[i] != op.ID {
						t.Fatalf("round %d: walk diverges from the pre-walk listing at %d: %s != %s", round, i, old[i], op.ID)
					}
				}
			}
		})
	}
}
