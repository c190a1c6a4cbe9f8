package main

// Tracing from outside the program: an http.Handler wrapper around the
// api server, a Store decorator handed to the engine as Config.Store,
// and wrappers around the benchmark's own registered handlers. Spans
// live in memory, keyed by operation ID (or list query), and are
// written out when the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// epoch anchors every timestamp of a run; mono is monotonic.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// seqHeader carries the client's request number, so a server span can
// be matched with the client's round trip.
const seqHeader = "X-Bench-Req"

// Store call kinds.
const (
	stPut uint8 = iota
	stPutBatch
	stGet
	stList
	stUpdate
	stDelete
	stSweep
	stKinds
)

var storeNames = [stKinds]string{"put", "put_batch", "get", "list", "update", "delete", "sweep"}

// Request classes, shared by the client records and the reports.
const (
	rqSubmit uint8 = iota
	rqSubmitBatch
	rqGet
	rqGetWait
	rqList
	rqListFiltered
	rqNotices
	rqKinds
)

var requestNames = [rqKinds]string{"submit", "submit_batch", "get", "get_wait", "list", "list_filtered", "notices"}

type storeSpan struct {
	Kind uint8
	// Key is the operation ID, the first ID of a batch, or a list
	// query's "cursor|status".
	Key    string
	IDs    []string    // every ID of a put_batch
	Status core.Status // the status an update published
	interval
}

type httpSpan struct {
	Seq int64
	// Key is the operation ID a GET names or a POST reply carries
	// first, or a list query's "cursor|status".
	Key  string
	Wait bool
	interval
}

type handlerSpan struct {
	ID string
	interval
}

type clientSpan struct {
	Seq   int64
	Class uint8
	interval
}

// tracer collects the spans of one traced run.
type tracer struct {
	seq atomic.Int64

	mu      sync.Mutex
	store   []storeSpan
	http    []httpSpan
	handler []handlerSpan
	client  []clientSpan
}

func newTracer() *tracer {
	return &tracer{
		store:   make([]storeSpan, 0, 1<<18),
		http:    make([]httpSpan, 0, 1<<17),
		handler: make([]handlerSpan, 0, 1<<16),
		client:  make([]clientSpan, 0, 1<<17),
	}
}

func (t *tracer) nextSeq() int64 { return t.seq.Add(1) }

func (t *tracer) recStore(s storeSpan) {
	t.mu.Lock()
	t.store = append(t.store, s)
	t.mu.Unlock()
}

func (t *tracer) recClient(seq int64, class uint8, start, end int64) {
	t.mu.Lock()
	t.client = append(t.client, clientSpan{seq, class, interval{start, end}})
	t.mu.Unlock()
}

// wrapStore decorates a Store. A durable store keeps exposing its WAL
// counters, so Engine.Stats still reports durable.
func (t *tracer) wrapStore(s engine.Store) engine.Store {
	ts := &tracedStore{inner: s, tr: t}
	if ds, ok := s.(walStatser); ok {
		return &tracedWALStore{tracedStore: ts, wal: ds}
	}
	return ts
}

// walStatser is the durable-store extension Engine.Stats looks for.
type walStatser interface{ WALStats() engine.WALStats }

type tracedStore struct {
	inner engine.Store
	tr    *tracer
}

type tracedWALStore struct {
	*tracedStore
	wal walStatser
}

func (s *tracedWALStore) WALStats() engine.WALStats { return s.wal.WALStats() }

func (s *tracedStore) Put(op *core.Operation) {
	id := op.ID
	t0 := mono()
	s.inner.Put(op)
	s.tr.recStore(storeSpan{Kind: stPut, Key: id, IDs: []string{id}, interval: interval{t0, mono()}})
}

func (s *tracedStore) PutBatch(ops []*core.Operation) {
	ids := make([]string, len(ops))
	for i, op := range ops {
		ids[i] = op.ID
	}
	t0 := mono()
	s.inner.PutBatch(ops)
	key := ""
	if len(ids) > 0 {
		key = ids[0]
	}
	s.tr.recStore(storeSpan{Kind: stPutBatch, Key: key, IDs: ids, interval: interval{t0, mono()}})
}

func (s *tracedStore) Get(id string) (*core.Operation, error) {
	t0 := mono()
	op, err := s.inner.Get(id)
	s.tr.recStore(storeSpan{Kind: stGet, Key: id, interval: interval{t0, mono()}})
	return op, err
}

func (s *tracedStore) List(q engine.ListQuery) ([]*core.Operation, error) {
	t0 := mono()
	ops, err := s.inner.List(q)
	s.tr.recStore(storeSpan{Kind: stList, Key: listKey(q.Cursor, string(q.Status)), interval: interval{t0, mono()}})
	return ops, err
}

func (s *tracedStore) Update(id string, fn func(op *core.Operation)) error {
	var status core.Status
	t0 := mono()
	err := s.inner.Update(id, func(op *core.Operation) {
		fn(op)
		// Assigned per attempt: the attempt that publishes is the
		// last one to run.
		status = op.Status
	})
	s.tr.recStore(storeSpan{Kind: stUpdate, Key: id, Status: status, interval: interval{t0, mono()}})
	return err
}

func (s *tracedStore) Delete(id string) {
	t0 := mono()
	s.inner.Delete(id)
	s.tr.recStore(storeSpan{Kind: stDelete, Key: id, interval: interval{t0, mono()}})
}

func (s *tracedStore) SweepTerminalBefore(cutoff time.Time) int {
	t0 := mono()
	n := s.inner.SweepTerminalBefore(cutoff)
	s.tr.recStore(storeSpan{Kind: stSweep, interval: interval{t0, mono()}})
	return n
}

// Len is not traced: the stats sampler calls it, not the request path.
func (s *tracedStore) Len() int { return s.inner.Len() }

func listKey(cursor, status string) string { return cursor + "|" + status }

// wrapHandler times one operation handler run.
func (t *tracer) wrapHandler(h engine.Handler) engine.Handler {
	return func(ctx context.Context, op *core.Operation) (any, error) {
		t0 := mono()
		res, err := h(ctx, op)
		end := mono()
		t.mu.Lock()
		t.handler = append(t.handler, handlerSpan{op.ID, interval{t0, end}})
		t.mu.Unlock()
		return res, err
	}
}

// wrapHTTP times every request the api server handles.
func (t *tracer) wrapHTTP(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := mono()
		sp := httpSpan{}
		sp.Seq, _ = strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		rw := &idSniffer{ResponseWriter: w, sniff: r.Method == http.MethodPost}
		h.ServeHTTP(rw, r)
		sp.interval = interval{t0, mono()}
		switch path := r.URL.Path; {
		case r.Method == http.MethodPost:
			sp.Key = rw.id
		case strings.HasPrefix(path, "/v1/operations/"):
			sp.Key = strings.TrimPrefix(path, "/v1/operations/")
			sp.Wait = r.URL.Query().Get("wait") == "true"
		case path == "/v1/operations":
			q := r.URL.Query()
			sp.Key = listKey(q.Get("cursor"), q.Get("status"))
		}
		t.mu.Lock()
		t.http = append(t.http, sp)
		t.mu.Unlock()
	})
}

// idSniffer remembers the first operation ID a POST reply carries.
type idSniffer struct {
	http.ResponseWriter
	sniff bool
	id    string
}

var idField = []byte(`"id":"`)

func (s *idSniffer) Write(b []byte) (int, error) {
	if s.sniff && s.id == "" {
		if i := bytes.Index(b, idField); i >= 0 && len(b) >= i+len(idField)+32 {
			s.id = string(b[i+len(idField) : i+len(idField)+32])
		}
	}
	return s.ResponseWriter.Write(b)
}

// writeSpans dumps every span as tab-separated lines: layer, name,
// key, start ns, end ns.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	line := func(layer, name, key string, iv interval) {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\n", layer, name, key, iv.Start, iv.End)
	}
	for _, s := range t.client {
		line("client", requestNames[s.Class], strconv.FormatInt(s.Seq, 10), s.interval)
	}
	for _, s := range t.http {
		line("http", strconv.FormatInt(s.Seq, 10), s.Key, s.interval)
	}
	for _, s := range t.store {
		name := storeNames[s.Kind]
		if s.Kind == stUpdate {
			name += ":" + string(s.Status)
		}
		line("store", name, s.Key, s.interval)
	}
	for _, s := range t.handler {
		line("handler", "run", s.ID, s.interval)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
