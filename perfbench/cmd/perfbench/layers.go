package main

// Per-layer metrics: span arithmetic over a traced run, plus the
// observations every run makes without tracing (runtime counters, WAL
// stats, queue depth).

import (
	"cmp"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure. Quantiles carry their sample count
// and the percentile actually used (see percentile).
type metric struct {
	Name     string
	Unit     string
	Value    float64
	N        int
	Pct      float64
	Quantile bool
	// Key is the workload-independent name under which the figure
	// appears in the result line, if it does.
	Key string
}

func qmetric(name, unit string, xs []float64, p float64) metric {
	q := percentile(xs, p)
	return metric{Name: name, Unit: unit, Value: q.Value, N: q.N, Pct: q.Pct, Quantile: true}
}

// primaryClass is each workload's most frequent request: the one the
// primary_* metrics and the per-layer primary breakdown describe.
func primaryClass(workload string) uint8 {
	switch workload {
	case wlIngest:
		return rqSubmitBatch
	case wlReads:
		return rqGet
	}
	return rqSubmit
}

// childKind is the store call each request class makes.
var childKind = map[uint8]uint8{
	rqSubmit:       stPutBatch,
	rqSubmitBatch:  stPutBatch,
	rqGet:          stGet,
	rqList:         stList,
	rqListFiltered: stList,
}

// layerMetrics derives the span-based per-layer figures of a traced
// run. ops is the number of measured operations (or reads); seen holds
// ingest-wal's done-notice arrivals.
func layerMetrics(tr *tracer, workload string, win interval, ops int, seen map[string]seenNotice) []metric {
	in := func(iv interval) bool { return iv.Start >= win.Start && iv.Start < win.End }
	const us = 1e3
	var out []metric

	clients := make(map[int64]clientSpan, len(tr.client))
	for _, c := range tr.client {
		clients[c.Seq] = c
	}
	// Store spans by kind and key, each list in start order, for
	// matching into requests.
	byKey := make([]map[string][]int, stKinds)
	for k := range byKey {
		byKey[k] = make(map[string][]int)
	}
	storeDur := make([][]float64, stKinds)
	calls := 0
	for i, s := range tr.store {
		byKey[s.Kind][s.Key] = append(byKey[s.Kind][s.Key], i)
		if in(s.interval) {
			storeDur[s.Kind] = append(storeDur[s.Kind], float64(s.End-s.Start)/us)
			calls++
		}
	}
	for _, m := range byKey {
		for _, idx := range m {
			slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(tr.store[a].Start, tr.store[b].Start) })
		}
	}

	primary := primaryClass(workload)
	var overhead, primaryStore []float64
	self := make([][]float64, rqKinds)
	for _, h := range tr.http {
		c, ok := clients[h.Seq]
		if !ok || !in(h.interval) {
			continue
		}
		if c.Class == primary {
			overhead = append(overhead, float64((c.End-c.Start)-(h.End-h.Start))/us)
		}
		kind, ok := childKind[c.Class]
		if !ok {
			continue
		}
		// The store calls a handler makes start inside its span. Many
		// list requests share a key (every first page does), so the
		// candidates are found by binary search on start time.
		var kids []interval
		idx := byKey[kind][h.Key]
		j, _ := slices.BinarySearchFunc(idx, h.Start, func(i int, t int64) int { return cmp.Compare(tr.store[i].Start, t) })
		for ; j < len(idx) && tr.store[idx[j]].Start < h.End; j++ {
			kids = append(kids, tr.store[idx[j]].interval)
		}
		self[c.Class] = append(self[c.Class], float64(selfTime(h.interval, kids))/us)
		if c.Class == primary {
			for _, k := range kids {
				primaryStore = append(primaryStore, float64(k.End-k.Start)/us)
			}
		}
	}
	out = append(out, qmetric("http.overhead_us_p50", "us", overhead, 50))
	for class := range self {
		if len(self[class]) == 0 {
			continue
		}
		name := "api." + requestNames[class] + ".self_us"
		out = append(out, qmetric(name+"_p50", "us", self[class], 50), qmetric(name+"_p99", "us", self[class], 99))
	}
	out = append(out,
		qmetric("api.primary.self_us_p50", "us", self[primary], 50),
		qmetric("api.primary.self_us_p99", "us", self[primary], 99))
	for k, d := range storeDur {
		if len(d) == 0 {
			continue
		}
		out = append(out, qmetric("store."+storeNames[k]+".us_p50", "us", d, 50), qmetric("store."+storeNames[k]+".us_p99", "us", d, 99))
	}
	out = append(out,
		qmetric("store.primary.us_p50", "us", primaryStore, 50),
		qmetric("store.primary.us_p99", "us", primaryStore, 99),
		metric{Name: "store.calls_per_op", Unit: "count", Value: perOp(float64(calls), ops)})

	// Lifecycle joins by operation ID.
	putEnd := make(map[string]int64)
	for _, s := range tr.store {
		if s.Kind == stPutBatch || s.Kind == stPut {
			for _, id := range s.IDs {
				putEnd[id] = s.End
			}
		}
	}
	termEnd := make(map[string]int64)
	var queueWait []float64
	for _, s := range tr.store {
		if s.Kind != stUpdate {
			continue
		}
		switch {
		case s.Status == "running":
			if p, ok := putEnd[s.Key]; ok && in(s.interval) {
				queueWait = append(queueWait, float64(s.Start-p)/us)
			}
		case terminal(string(s.Status)):
			termEnd[s.Key] = s.End
		}
	}
	var finish, wake, lag []float64
	for _, h := range tr.handler {
		if e, ok := termEnd[h.ID]; ok && in(h.interval) {
			finish = append(finish, float64(e-h.End)/us)
		}
	}
	for _, h := range tr.http {
		if e, ok := termEnd[h.Key]; ok && h.Wait && in(h.interval) && h.Start < e && e <= h.End {
			wake = append(wake, float64(h.End-e)/us)
		}
	}
	for id, n := range seen {
		if e, ok := termEnd[id]; ok && n.Recv >= win.Start && n.Recv < win.End {
			lag = append(lag, float64(n.Recv-e)/us)
		}
	}
	if len(queueWait) > 0 {
		out = append(out, qmetric("sched.queue_wait_us_p50", "us", queueWait, 50), qmetric("sched.queue_wait_us_p99", "us", queueWait, 99))
	}
	if len(finish) > 0 {
		out = append(out, qmetric("engine.finish_us_p50", "us", finish, 50))
	}
	if len(wake) > 0 {
		out = append(out, qmetric("watch.wake_us_p50", "us", wake, 50), qmetric("watch.wake_us_p99", "us", wake, 99))
	}
	if len(lag) > 0 {
		out = append(out, qmetric("notices.lag_us_p50", "us", lag, 50), qmetric("notices.lag_us_p99", "us", lag, 99))
	}
	return out
}

func perOp(x float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	cpu        float64 // user+system CPU seconds
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // GC CPU seconds, as the runtime estimates them
	writeBytes int64   // /proc/self/io write_bytes
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	u.allocs = s[0].Value.Uint64()
	u.allocBytes = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.writeBytes = procWriteBytes()
	return u
}

// procWriteBytes reads the bytes this process sent to the storage
// layer; -1 when the kernel does not expose it.
func procWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// liveHeapMiB forces a GC and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// monitor samples engine stats through the measured window and takes
// the usage snapshots at its edges.
type monitor struct {
	done                  chan struct{}
	before, after         usage
	depth, fsyncs, commit []float64
}

func startMonitor(d *daemon, win interval) *monitor {
	m := &monitor{done: make(chan struct{})}
	go func() {
		defer close(m.done)
		sleepUntil(win.Start)
		m.before = readUsage()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for mono() < win.End {
			<-tick.C
			st := d.eng.Stats()
			m.depth = append(m.depth, float64(st.QueueDepth))
			if st.Durable {
				m.fsyncs = append(m.fsyncs, st.FsyncsPerSec)
				m.commit = append(m.commit, st.WALBatchP50)
			}
		}
		m.after = readUsage()
	}()
	return m
}

func (m *monitor) wait() { <-m.done }
