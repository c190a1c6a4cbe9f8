package api

// End-to-end API benchmarks: every request travels the full
// router → handler → engine → store → JSON-envelope path through
// httptest recorders, so a regression anywhere in that stack shows up
// here even if the store microbenchmarks stay flat. Run via
// `make bench-e2e` or:
//
//	go test -bench=. -benchtime=100x -run '^$' ./internal/api/
//
// CI runs the 100x variant on every push. The headline numbers for the
// read-path work are BenchmarkAPIGet (poll) and BenchmarkAPIList
// (page), whose costs must not scale with store size.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// newBenchServer wires a server whose engine drains instantly-done
// noop operations, with enough queue headroom that submission
// benchmarks measure the API path rather than backpressure.
func newBenchServer(b *testing.B, store engine.Store) (*Server, *engine.Engine) {
	b.Helper()
	e := engine.New(engine.Config{Workers: 4, QueueDepth: 1 << 16, Store: store})
	b.Cleanup(func() { e.Shutdown(context.Background()) })
	e.Register("noop", func(context.Context, *core.Operation) (any, error) {
		return nil, nil
	})
	return New(e), e
}

// benchStores enumerates the store configurations the e2e suite runs
// against: the daemon default plus the single-lock baseline.
func benchStores() []struct {
	name string
	mk   func() engine.Store
} {
	return []struct {
		name string
		mk   func() engine.Store
	}{
		{"sharded-1", func() engine.Store { return engine.NewShardedStore(1) }},
		{fmt.Sprintf("sharded-%d", engine.DefaultShardCount()), func() engine.Store { return engine.NewShardedStore(0) }},
	}
}

// seedStore fills a store with n terminal operations, one in seven of
// them failed and the rest done, so read benchmarks operate on a
// realistically full daemon.
func seedStore(st engine.Store, n int) []*core.Operation {
	t0 := time.Unix(1000, 0)
	ops := make([]*core.Operation, n)
	for i := range ops {
		status := core.StatusDone
		if i%7 == 0 {
			status = core.StatusFailed
		}
		ops[i] = &core.Operation{
			ID:        core.NewID(),
			Kind:      "noop",
			Status:    status,
			CreatedAt: t0.Add(time.Duration(i) * time.Millisecond),
			UpdatedAt: t0.Add(time.Duration(i) * time.Millisecond),
		}
	}
	st.PutBatch(ops)
	return ops
}

// serve runs one freshly built request through the full handler stack
// and returns the recorder. Benchmark loops use benchRequest instead.
func serve(s *Server, method, path string, body string, mods ...func(*http.Request)) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for _, mod := range mods {
		mod(r)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// benchRequest is a request built once and served many times, with a
// recorder reset between calls: a benchmark loop then times the
// handler stack rather than httptest.NewRequest's parsing and
// allocations, which made up ~15% of the loop's CPU profile.
type benchRequest struct {
	s    *Server
	r    *http.Request
	body *strings.Reader
	// rc is the request body as built; handlers may replace r.Body
	// (submit wraps it in a MaxBytesReader), so serve reinstates it.
	rc   io.ReadCloser
	text string
	w    benchRecorder
}

func newBenchRequest(s *Server, method, path, body string, mods ...func(*http.Request)) *benchRequest {
	br := &benchRequest{s: s, text: body, w: benchRecorder{header: make(http.Header)}}
	if body == "" {
		br.r = httptest.NewRequest(method, path, nil)
	} else {
		br.body = strings.NewReader(body)
		br.r = httptest.NewRequest(method, path, br.body)
		br.rc = br.r.Body
	}
	for _, mod := range mods {
		mod(br.r)
	}
	return br
}

// serve runs the request through the full handler stack and returns
// the recorder, which stays valid until the next call.
func (br *benchRequest) serve() *benchRecorder {
	br.w.reset()
	if br.body != nil {
		br.body.Reset(br.text)
		br.r.Body = br.rc
	}
	br.s.ServeHTTP(&br.w, br.r)
	return &br.w
}

// benchRecorder is an http.ResponseWriter that, unlike
// httptest.ResponseRecorder, can be reset for the next request.
type benchRecorder struct {
	Code   int
	Body   bytes.Buffer
	header http.Header
	wrote  bool
}

func (w *benchRecorder) Header() http.Header { return w.header }

func (w *benchRecorder) WriteHeader(code int) {
	if !w.wrote {
		w.Code, w.wrote = code, true
	}
}

func (w *benchRecorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.Body.Write(p)
}

func (w *benchRecorder) reset() {
	w.Code, w.wrote = 0, false
	w.Body.Reset()
	clear(w.header)
}

// BenchmarkAPISubmit measures single-operation submission end to end.
// Workers drain the noops concurrently; the occasional 429 under a
// long -benchtime is the queue's backpressure and still exercises the
// submission path, so it is counted rather than fatal.
func BenchmarkAPISubmit(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, _ := newBenchServer(b, bs.mk())
			req := newBenchRequest(s, "POST", "/v1/operations", `{"kind":"noop"}`)
			rejected := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch w := req.serve(); w.Code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("submit returned %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejected), "429s")
			}
		})
	}
}

// BenchmarkAPISubmitBatch10 measures the amortised batch submission
// path at the batch size the docs quote.
func BenchmarkAPISubmitBatch10(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, _ := newBenchServer(b, bs.mk())
			req := newBenchRequest(s, "POST", "/v1/operations", "["+strings.Repeat(`{"kind":"noop"},`, 9)+`{"kind":"noop"}]`)
			rejected := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch w := req.serve(); w.Code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("batch submit returned %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejected), "429s")
			}
		})
	}
}

// BenchmarkAPICancel measures cancellation end to end. Each iteration
// submits one operation whose handler blocks until it is cancelled,
// then sends DELETE /v1/operations/{id}; the op is cancelled either
// still queued or running, as the workers happen to pick it up.
// ns/op and allocs/op cover both requests and the workers' side of the
// cancellation.
func BenchmarkAPICancel(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, e := newBenchServer(b, bs.mk())
			e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			})
			submit := newBenchRequest(s, "POST", "/v1/operations", `{"kind":"block"}`)
			cancel := newBenchRequest(s, "DELETE", "/v1/operations/x", "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := submit.serve()
				if w.Code != http.StatusAccepted {
					b.Fatalf("submit returned %d: %s", w.Code, w.Body.String())
				}
				cancel.r.URL.Path = "/v1/operations/" + benchOpID(b, w.Body.Bytes())
				if w := cancel.serve(); w.Code != http.StatusAccepted {
					b.Fatalf("cancel returned %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}

// BenchmarkAPIGet measures the poll hot path — the request snapd-style
// clients issue in a tight loop — against a 10k-operation store.
func BenchmarkAPIGet(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			st := bs.mk()
			ops := seedStore(st, 10_000)
			s, _ := newBenchServer(b, st)
			paths := make([]string, len(ops))
			for i, op := range ops {
				paths[i] = "/v1/operations/" + op.ID
			}
			req := newBenchRequest(s, "GET", paths[0], "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.r.URL.Path = paths[i%len(paths)]
				w := req.serve()
				if w.Code != http.StatusOK {
					b.Fatalf("get returned %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkAPIList measures a limit=50 page over a 10k-operation
// store: before the ordered index this cloned and sorted all 10k ops
// per request; now it touches 50.
func BenchmarkAPIList(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			st := bs.mk()
			seedStore(st, 10_000)
			s, _ := newBenchServer(b, st)
			req := newBenchRequest(s, "GET", "/v1/operations?limit=50", "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := req.serve()
				if w.Code != http.StatusOK {
					b.Fatalf("list returned %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkAPIListFiltered measures a status=failed&limit=50 page over
// a 10k-operation store where one op in seven failed: the filtered
// scan walks ~350 index entries in page-sized chunks and encodes 50.
func BenchmarkAPIListFiltered(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			st := bs.mk()
			seedStore(st, 10_000)
			s, _ := newBenchServer(b, st)
			req := newBenchRequest(s, "GET", "/v1/operations?status=failed&limit=50", "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := req.serve()
				if w.Code != http.StatusOK {
					b.Fatalf("filtered list returned %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkAPIListCursor measures a mid-stream cursor page, which adds
// the cursor resolution (one point lookup + per-shard binary search)
// to the page cost.
func BenchmarkAPIListCursor(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			st := bs.mk()
			ops := seedStore(st, 10_000)
			s, _ := newBenchServer(b, st)
			req := newBenchRequest(s, "GET", "/v1/operations?limit=50&cursor="+ops[len(ops)/2].ID, "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := req.serve()
				if w.Code != http.StatusOK {
					b.Fatalf("cursor list returned %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkAPISubmitBatch10WAL is the durable end-to-end path: the
// same batch-of-10 submission as BenchmarkAPISubmitBatch10 but with
// the engine running on the WAL store (`-store=wal`), so each request
// pays admission durability. group is the shipping default; always is
// the per-mutation-fsync comparison point. Compare against the
// in-memory rows above for the durability tax at the API layer.
func BenchmarkAPISubmitBatch10WAL(b *testing.B) {
	for _, mode := range []engine.WALSyncMode{engine.WALSyncGroup, engine.WALSyncAlways} {
		b.Run(string(mode), func(b *testing.B) {
			st, err := engine.OpenWALStore(engine.WALConfig{Dir: b.TempDir(), Sync: mode})
			if err != nil {
				b.Fatalf("OpenWALStore: %v", err)
			}
			b.Cleanup(func() {
				if err := st.Close(); err != nil {
					b.Errorf("WALStore.Close: %v", err)
				}
			})
			s, _ := newBenchServer(b, st)
			req := newBenchRequest(s, "POST", "/v1/operations", "["+strings.Repeat(`{"kind":"noop"},`, 9)+`{"kind":"noop"}]`)
			rejected := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch w := req.serve(); w.Code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("batch submit returned %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejected), "429s")
			}
		})
	}
}
