package api

// E2E benchmarks for the push read path, run by `make bench-e2e`
// alongside the poll-path benches in api_bench_test.go. The pairing to
// read: BenchmarkAPIGet is the cost of one poll that learned nothing;
// BenchmarkAPIWatchSubmitToTerminal is the cost of learning the
// outcome with long-polls instead of a poll loop — the per-request
// cost is higher (a blocked handler, a wake), but it replaces the
// entire poll loop, which is the trade BENCH_7.json quantifies at the
// daemon level.

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// benchOpID pulls the operation ID out of a submit response.
func benchOpID(b *testing.B, body []byte) string {
	b.Helper()
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatalf("decoding submit response %q: %v", body, err)
	}
	op, ok := resp.Result.(map[string]any)
	if !ok {
		b.Fatalf("submit result = %T, want object", resp.Result)
	}
	id, _ := op["id"].(string)
	if id == "" {
		b.Fatal("submit result has no id")
	}
	return id
}

// benchOpStatus pulls the status out of a get response.
func benchOpStatus(b *testing.B, body []byte) core.Status {
	b.Helper()
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatalf("decoding get response %q: %v", body, err)
	}
	op, ok := resp.Result.(map[string]any)
	if !ok {
		b.Fatalf("get result = %T, want object", resp.Result)
	}
	st, _ := op["status"].(string)
	return core.Status(st)
}

// BenchmarkAPIGetWaitTerminal measures ?wait=true against an
// already-terminal operation: the immediate-return arm, i.e. the
// plumbing overhead wait adds on top of a plain Get.
func BenchmarkAPIGetWaitTerminal(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			st := bs.mk()
			ops := seedStore(st, 10_000)
			s, _ := newBenchServer(b, st)
			paths := make([]string, len(ops))
			for i, op := range ops {
				paths[i] = "/v1/operations/" + op.ID
			}
			req := newBenchRequest(s, "GET", paths[0]+"?wait=true&timeout=5s", "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.r.URL.Path = paths[i%len(paths)]
				w := req.serve()
				if w.Code != http.StatusOK {
					b.Fatalf("wait get returned %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkAPIWatchSubmitToTerminal measures one full watched
// lifecycle: submit, then long-poll until the terminal state arrives.
// Each iteration issues the submit plus however many waits the
// lifecycle needs (typically two: queued→running, running→done) —
// compare with the dozens of GETs a poll loop at any fixed interval
// spends on the same outcome.
func BenchmarkAPIWatchSubmitToTerminal(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, _ := newBenchServer(b, bs.mk())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := serve(s, "POST", "/v1/operations", `{"kind":"noop"}`)
				if w.Code != http.StatusAccepted {
					b.Fatalf("submit returned %d", w.Code)
				}
				id := benchOpID(b, w.Body.Bytes())
				for {
					w = serve(s, "GET", "/v1/operations/"+id+"?wait=true&timeout=5s", "")
					if w.Code != http.StatusOK {
						b.Fatalf("wait get returned %d", w.Code)
					}
					if benchOpStatus(b, w.Body.Bytes()).Terminal() {
						break
					}
				}
			}
		})
	}
}

// BenchmarkAPINotices measures a limit=50 feed page over a populated
// ring — the recurring request of a caught-up notices watcher that
// fell briefly behind.
func BenchmarkAPINotices(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, e := newBenchServer(b, bs.mk())
			// Populate the feed with real lifecycles (3 notices each).
			for i := 0; i < 200; i++ {
				w := serve(s, "POST", "/v1/operations", `{"kind":"noop"}`)
				if w.Code != http.StatusAccepted {
					b.Fatalf("seed submit returned %d", w.Code)
				}
			}
			// All 200 lifecycles (3 notices each) settle before
			// measuring.
			for e.Stats().LastNotice < 600 {
				time.Sleep(time.Millisecond)
			}
			req := newBenchRequest(s, "GET", "/v1/notices?limit=50", "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := req.serve()
				if w.Code != http.StatusOK {
					b.Fatalf("notices returned %d", w.Code)
				}
			}
		})
	}
}
