package api

// E2E benchmarks for the push read path, run by `make bench-e2e`
// alongside the poll-path benches in api_bench_test.go. The pairing to
// read: BenchmarkAPIGet is the cost of one poll that learned nothing;
// BenchmarkAPIWatchSubmitToTerminal is the cost of learning the
// outcome with long-polls instead of a poll loop — the per-request
// cost is higher (a blocked handler, a wake), but it replaces the
// entire poll loop.

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// Byte-search keys for benchOpField: the reply's result object, then a
// string field inside it. The operation encodes id and status ahead of
// params and result, so the first match inside the result object is
// the operation's own field.
var (
	benchResultKey = []byte(`"result":{`)
	benchIDKey     = []byte(`"id":"`)
	benchStatusKey = []byte(`"status":"`)
)

// benchOpField returns the raw value of the string field named by key
// in a reply's result object. It searches bytes instead of decoding
// the envelope, so a benchmark loop's allocations are the daemon's,
// not a JSON decoder's.
func benchOpField(b *testing.B, body, key []byte) []byte {
	b.Helper()
	_, result, ok := bytes.Cut(body, benchResultKey)
	if ok {
		_, result, ok = bytes.Cut(result, key)
	}
	var val []byte
	if ok {
		val, _, ok = bytes.Cut(result, []byte{'"'})
	}
	if !ok || len(val) == 0 {
		b.Fatalf("reply %q has no result field %s", body, key)
	}
	return val
}

// benchOpID pulls the operation ID out of a submit response.
func benchOpID(b *testing.B, body []byte) string {
	b.Helper()
	return string(benchOpField(b, body, benchIDKey))
}

// benchOpStatus pulls the status out of a get response, mapping it to
// the core constant so the loop does not allocate a string per reply.
func benchOpStatus(b *testing.B, body []byte) core.Status {
	b.Helper()
	val := benchOpField(b, body, benchStatusKey)
	for _, st := range []core.Status{core.StatusQueued, core.StatusRunning, core.StatusDone, core.StatusFailed, core.StatusCancelled} {
		if string(val) == string(st) {
			return st
		}
	}
	b.Fatalf("reply has unknown status %q", val)
	return ""
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
			submit := newBenchRequest(s, "POST", "/v1/operations", `{"kind":"noop"}`)
			wait := newBenchRequest(s, "GET", "/v1/operations/x?wait=true&timeout=5s", "")
			waits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := submit.serve()
				if w.Code != http.StatusAccepted {
					b.Fatalf("submit returned %d", w.Code)
				}
				wait.r.URL.Path = "/v1/operations/" + benchOpID(b, w.Body.Bytes())
				for {
					w = wait.serve()
					waits++
					if w.Code != http.StatusOK {
						b.Fatalf("wait get returned %d", w.Code)
					}
					if benchOpStatus(b, w.Body.Bytes()).Terminal() {
						break
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(waits)/float64(b.N), "waits/op")
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
