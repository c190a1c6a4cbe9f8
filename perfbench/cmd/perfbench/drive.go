package main

// The client side: at most two keep-alive connections, each driven by
// one goroutine, replaying the pre-built inputs and checking replies.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/core"
)

// client owns one keep-alive connection.
type client struct {
	hc   *http.Client
	tr   *tracer
	base string
	buf  bytes.Buffer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t}, tr: tr, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.buf. sent and
// recv bracket the round trip.
func (c *client) do(ctx context.Context, method, path string, body []byte, class uint8) (status int, sent, recv int64, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var seq int64
	if c.tr != nil {
		seq = c.tr.nextSeq()
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	sent = mono()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, sent, mono(), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	recv = mono()
	if c.tr != nil {
		c.tr.recClient(seq, class, sent, recv)
	}
	return resp.StatusCode, sent, recv, err
}

// tally counts requests and failures across a run's goroutines and
// keeps the first few failure messages.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// samples are one goroutine's measured latencies.
type samples struct {
	primary, secondary, filtered, lateness []int64
	ops, gets                              int
}

func (s *samples) merge(o *samples) {
	s.primary = append(s.primary, o.primary...)
	s.secondary = append(s.secondary, o.secondary...)
	s.filtered = append(s.filtered, o.filtered...)
	s.lateness = append(s.lateness, o.lateness...)
	s.ops += o.ops
	s.gets += o.gets
}

// sleepUntil sleeps until the monotonic instant t.
func sleepUntil(t int64) {
	if d := time.Duration(t - mono()); d > 0 {
		time.Sleep(d)
	}
}

// asyncReply is a single-submit reply; batchReply a batch one.
type asyncReply struct {
	Result opJSON `json:"result"`
}

type batchReply struct {
	Result []asyncReply `json:"result"`
}

type noticeJSON struct {
	Seq  uint64    `json:"seq"`
	OpID string    `json:"op_id"`
	Time time.Time `json:"time"`
}

type noticesReply struct {
	Result []noticeJSON `json:"result"`
}

// driveLifecycle is the open loop: seeded Poisson arrivals, each a
// POST followed by long-polls on the same connection until the op
// settles. Latency is timed from each arrival's due time (see the loop
// for the one exception).
func driveLifecycle(ctx context.Context, base string, in *Inputs, tr *tracer, t0 int64, win interval, tl *tally) *samples {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([]samples, 2)
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base, tr)
			defer c.close()
			s := &per[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.Arrivals) {
					return
				}
				a := &in.Arrivals[i]
				due := t0 + int64(a.Due)
				// A connection still busy at the due time makes the
				// arrival queue, and that wait counts: the request is
				// timed from its due time. An idle connection waits for
				// the due time instead, but Go's netpoller sleeps in
				// whole milliseconds, so it sleeps to within timerSlack
				// of it and sends then; such requests are timed from
				// their actual send, which keeps the timer's overshoot
				// (the generator's error) out of the daemon's latency.
				queued := mono() >= due
				sleepUntil(due - int64(timerSlack))
				lifecycleOp(ctx, c, a, due, queued, due >= win.Start && due < win.End, s, tl)
			}
		}()
	}
	wg.Wait()
	all := &samples{}
	for i := range per {
		all.merge(&per[i])
	}
	return all
}

// timerSlack is how far ahead of its due time an arrival may be sent
// rather than slept for: the resolution of the runtime's timers.
const timerSlack = time.Millisecond

// waitQuery long-polls with a bounded server-side wait.
const waitQuery = "?wait=true&timeout=5s"

// settleTimeout bounds how long an op may take to settle.
const settleTimeout = 30 * time.Second

func lifecycleOp(ctx context.Context, c *client, a *Arrival, due int64, queued, measured bool, s *samples, tl *tally) {
	tl.attempted.Add(1)
	status, sent, recv, err := c.do(ctx, http.MethodPost, "/v1/operations", a.Body, rqSubmit)
	if err != nil || status != http.StatusAccepted {
		tl.fail("submit: status %d: %v", status, err)
		return
	}
	var sub asyncReply
	if err := json.Unmarshal(c.buf.Bytes(), &sub); err != nil || !core.ValidID(sub.Result.ID) {
		tl.fail("submit reply %q: %v", c.buf.Bytes(), err)
		return
	}
	submitted := recv
	path := "/v1/operations/" + sub.Result.ID + waitQuery
	gets := 0
	for {
		tl.attempted.Add(1)
		gets++
		status, _, recv, err = c.do(ctx, http.MethodGet, path, nil, rqGetWait)
		if err != nil || status != http.StatusOK {
			tl.fail("wait %s: status %d: %v", sub.Result.ID, status, err)
			return
		}
		var got asyncReply
		if err := json.Unmarshal(c.buf.Bytes(), &got); err != nil || got.Result.ID != sub.Result.ID {
			tl.fail("wait %s reply %q: %v", sub.Result.ID, c.buf.Bytes(), err)
			return
		}
		if terminal(got.Result.Status) {
			if err := checkOutcome(a.Item, got.Result.Status, got.Result.Result); err != nil {
				tl.fail("op %s (%s): %v", got.Result.ID, a.Item.Kind, err)
				return
			}
			break
		}
		if time.Duration(recv-submitted) > settleTimeout {
			tl.fail("op %s never settled", sub.Result.ID)
			return
		}
	}
	if measured {
		origin := sent
		if queued {
			origin = due
		}
		s.primary = append(s.primary, submitted-origin)
		s.secondary = append(s.secondary, recv-origin)
		s.lateness = append(s.lateness, sent-due)
		s.ops++
		s.gets += gets
	}
}

// ingestBook joins the submitter's acknowledgements with the
// follower's done notices; either may arrive first.
type ingestBook struct {
	mu      sync.Mutex
	acks    map[string]ack
	seen    map[string]seenNotice
	pending int // acknowledged, done notice not yet seen
}

// driveIngest is the closed loop: connection 1 POSTs batch-10 arrays
// and waits for each 202; connection 2 follows the done notices.
func driveIngest(ctx context.Context, base string, in *Inputs, tr *tracer, win interval, tl *tally) (*samples, *ingestBook) {
	book := &ingestBook{acks: make(map[string]ack), seen: make(map[string]seenNotice)}
	fctx, stopFollower := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		follow(fctx, newClient(base, tr), book, tl)
	}()

	s := &samples{}
	sub := newClient(base, tr)
	defer sub.close()
	for i := 0; mono() < win.End; i++ {
		b := &in.Batches[i%len(in.Batches)]
		tl.attempted.Add(1)
		status, sent, recv, err := sub.do(ctx, http.MethodPost, "/v1/operations", b.Body, rqSubmitBatch)
		if err != nil || status != http.StatusAccepted {
			tl.fail("batch submit: status %d: %v", status, err)
			continue
		}
		var rep batchReply
		if err := json.Unmarshal(sub.buf.Bytes(), &rep); err != nil || len(rep.Result) != len(b.Items) {
			tl.fail("batch reply %q: %v", sub.buf.Bytes(), err)
			continue
		}
		measured := sent >= win.Start
		book.mu.Lock()
		for j, r := range rep.Result {
			if _, ok := book.seen[r.Result.ID]; !ok {
				book.pending++
			}
			book.acks[r.Result.ID] = ack{Sent: sent, Measured: measured, Item: b.Items[j]}
		}
		book.mu.Unlock()
		if measured {
			s.primary = append(s.primary, recv-sent)
			s.ops += len(b.Items)
		}
	}
	// Let the follower catch up on everything acknowledged.
	for deadline := mono() + int64(settleTimeout); mono() < deadline; {
		book.mu.Lock()
		p := book.pending
		book.mu.Unlock()
		if p == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopFollower()
	wg.Wait()
	for id, a := range book.acks {
		n, ok := book.seen[id]
		switch {
		case !ok:
			tl.fail("no done notice for acknowledged op %s", id)
		case a.Measured:
			s.secondary = append(s.secondary, n.Recv-a.Sent)
		}
	}
	return s, book
}

// follow tails /v1/notices?status=done until ctx is cancelled.
func follow(ctx context.Context, c *client, book *ingestBook, tl *tally) {
	defer c.close()
	var after uint64
	for ctx.Err() == nil {
		tl.attempted.Add(1)
		status, _, recv, err := c.do(ctx, http.MethodGet, "/v1/notices?status=done&wait=true&timeout=1s&after="+strconv.FormatUint(after, 10), nil, rqNotices)
		if ctx.Err() != nil {
			// Stopped on purpose mid-poll; not a failure.
			tl.attempted.Add(-1)
			return
		}
		if err != nil || status != http.StatusOK {
			tl.fail("notices: status %d: %v", status, err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var rep noticesReply
		if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
			tl.fail("notices reply %q: %v", c.buf.Bytes(), err)
			continue
		}
		book.mu.Lock()
		for _, n := range rep.Result {
			if _, dup := book.seen[n.OpID]; !dup {
				book.seen[n.OpID] = seenNotice{Recv: recv, At: n.Time}
				if _, ok := book.acks[n.OpID]; ok {
					book.pending--
				}
			}
			after = n.Seq
		}
		book.mu.Unlock()
	}
}

// driveReads is the closed read loop on two connections: point GETs,
// newest-first cursor walks, and status=failed pages.
func driveReads(ctx context.Context, base string, in *Inputs, tr *tracer, win interval, tl *tally) *samples {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([]samples, 2)
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base, tr)
			defer c.close()
			s := &per[w]
			var refs []opRef
			for mono() < win.End {
				r := &in.Reads[int(next.Add(1)-1)%len(in.Reads)]
				switch r.Kind {
				case readGet:
					refs = readGetOp(ctx, c, &in.Preload[r.Target], win, s, tl, refs[:0])
				default:
					refs = readWalk(ctx, c, in.Preload, r, win, s, tl, refs[:0])
				}
			}
		}()
	}
	wg.Wait()
	all := &samples{}
	for i := range per {
		all.merge(&per[i])
	}
	return all
}

func readGetOp(ctx context.Context, c *client, want *PreOp, win interval, s *samples, tl *tally, refs []opRef) []opRef {
	tl.attempted.Add(1)
	status, sent, recv, err := c.do(ctx, http.MethodGet, "/v1/operations/"+want.ID, nil, rqGet)
	if err != nil || status != http.StatusOK {
		tl.fail("get %s: status %d: %v", want.ID, status, err)
		return refs
	}
	refs, err = scanOps(c.buf.Bytes(), true, refs)
	if err != nil {
		tl.fail("get %s: %v", want.ID, err)
		return refs
	}
	if err := checkGet(want, refs[0]); err != nil {
		tl.fail("%v", err)
		return refs
	}
	if sent >= win.Start && sent < win.End {
		s.primary = append(s.primary, recv-sent)
		s.ops++
	}
	return refs
}

func readWalk(ctx context.Context, c *client, preload []PreOp, r *ReadReq, win interval, s *samples, tl *tally, refs []opRef) []opRef {
	prev, cursor := len(preload), ""
	status, class := "", rqList
	if r.Kind == readFiltered {
		status, class = string(core.StatusFailed), rqListFiltered
	}
	for range r.Pages {
		path := "/v1/operations?limit=" + strconv.Itoa(listLimit)
		if status != "" {
			path += "&status=" + status
		}
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		tl.attempted.Add(1)
		code, sent, recv, err := c.do(ctx, http.MethodGet, path, nil, class)
		if err != nil || code != http.StatusOK {
			tl.fail("list %s: status %d: %v", path, code, err)
			return refs
		}
		if refs, err = scanOps(c.buf.Bytes(), false, refs[:0]); err != nil {
			tl.fail("list reply: %v", err)
			return refs
		}
		if prev, err = checkPage(refs, preload, prev, status, listLimit); err != nil {
			tl.fail("list %s: %v", path, err)
			return refs
		}
		if sent >= win.Start && sent < win.End {
			if class == rqList {
				s.secondary = append(s.secondary, recv-sent)
			} else {
				s.filtered = append(s.filtered, recv-sent)
			}
			s.ops++
		}
		if len(refs) == 0 {
			return refs
		}
		cursor = refs[len(refs)-1].ID
	}
	return refs
}
