// Command perfbench is opdaemon's benchmark. It runs the daemon
// in-process — engine.New plus api.New served by net/http on loopback,
// wired with cmd/daemon's defaults — drives one named workload from a
// seed over at most two keep-alive connections, checks every reply,
// and prints its metrics by name and unit. The last line of standard
// output is one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics of a second, traced run with --trace 1.
//
//	perfbench --workload lifecycle-mem|ingest-wal|reads-mem --seed N --seconds S --trace 0|1
//
// It exits non-zero when any request fails or any check on a reply
// fails. See perfbench/README.md for the workloads and the metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"opdaemon/internal/engine"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	work     string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: lifecycle-mem, ingest-wal or reads-mem")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase, after a 2s warm-up")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "scratch directory for WAL logs and span dumps")
	flag.Parse()
	os.Exit(run(context.Background(), cfg))
}

// runEnv is what every phase of one invocation shares.
type runEnv struct {
	cfg    config
	in     *Inputs
	dir    string
	logDir string // ingest-wal's pristine recovery log
}

// phase is one measured run: set-up, warm-up, measured window,
// end-of-run checks.
type phase struct {
	tl              tally
	s               *samples
	win             interval
	mon             *monitor
	setups, replays []float64
	recovers        []float64
	heapMiB         float64
	dirBytesPerLive float64
	seen            map[string]seenNotice
	layers          []metric
	missedNotices   int
}

func run(ctx context.Context, cfg config) int {
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	in, err := generate(cfg.workload, cfg.seed, cfg.seconds, defaultSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	env := &runEnv{cfg: cfg, in: in, dir: filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.dir)
	if cfg.workload == wlIngest {
		env.logDir = filepath.Join(env.dir, "seedlog")
		if err := writeLog(env.logDir, in.Log); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing recovery log:", err)
			return 1
		}
		// The log is on disk now; holding its source would only add to
		// the heap the daemon's GC has to scan.
		in.Log = nil
	}
	printRecord(env)

	plain, err := measure(ctx, env, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e2e := endToEnd(in.Workload, plain, cfg.seconds)
	fmt.Println("# end-to-end (untraced run)")
	printMetrics(e2e)
	failed := plain.tl.failed.Load()
	attempted := plain.tl.attempted.Load()
	printFailures("untraced", plain)

	var result map[string]any
	if cfg.trace == 0 {
		byKey := make(map[string]metric, len(e2e))
		for _, m := range e2e {
			byKey[m.Key] = m
		}
		result = pick(declaredE2E, byKey)
	} else {
		tr := newTracer()
		traced, err := measure(ctx, env, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		failed += traced.tl.failed.Load()
		attempted += traced.tl.attempted.Load()
		printFailures("traced", traced)
		layers := append(observed(in.Workload, plain), traced.layers...)
		fmt.Println("# per-layer (span figures from the traced run, the rest from the untraced run)")
		printMetrics(layers)
		fmt.Println("# tracing overhead (traced minus untraced)")
		tracedE2E := endToEnd(in.Workload, traced, cfg.seconds)
		for i, m := range e2e {
			fmt.Printf("trace_overhead.%-28s %+14.6g %s\n", m.Name, tracedE2E[i].Value-m.Value, m.Unit)
		}
		byName := make(map[string]metric, len(layers))
		for _, m := range layers {
			byName[m.Name] = m
		}
		result = pick(declaredLayers, byName)
		spans := filepath.Join(cfg.work, "spans-"+cfg.workload+".tsv")
		if err := tr.writeSpans(spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("# spans written to %s\n", spans)
		}
	}
	if attempted < 1 {
		attempted = 1
		failed++
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   result,
	})
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// declaredE2E and declaredLayers are the metrics of the result line,
// as BENCHMARK.json lists them. Every workload reports each; the
// end-to-end ones are found by their workload-independent Key.
var declaredE2E = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "ops_per_s", Unit: "ops/s"},
	{Name: "primary_p50_ms", Unit: "ms"},
	{Name: "secondary_p50_ms", Unit: "ms"},
	{Name: "cpu_us_per_op", Unit: "us"},
}

var declaredLayers = []metric{
	{Name: "http.overhead_us_p50", Unit: "us"},
	{Name: "api.primary.self_us_p50", Unit: "us"},
	{Name: "api.primary.self_us_p99", Unit: "us"},
	{Name: "store.primary.us_p50", Unit: "us"},
	{Name: "store.primary.us_p99", Unit: "us"},
	{Name: "store.get.us_p50", Unit: "us"},
	{Name: "store.calls_per_op", Unit: "count"},
	{Name: "runtime.allocs_per_op", Unit: "count"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio"},
	{Name: "runtime.heap_mb", Unit: "MiB"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s"},
	{Name: "wal.records_per_commit_p50", Unit: "count"},
	{Name: "wal.device_bytes_per_op", Unit: "B"},
	{Name: "wal.dir_bytes_per_live_op", Unit: "B"},
	{Name: "sched.depth_p50", Unit: "count"},
}

// pick returns the declared metrics as the result line carries them,
// in the units BENCHMARK.json declares. A counter of a layer the
// workload never exercises is absent from found and reads zero.
func pick(declared []metric, found map[string]metric) map[string]any {
	out := make(map[string]any, len(declared))
	for _, d := range declared {
		out[d.Name] = map[string]any{"value": found[d.Name].Value, "unit": d.Unit}
	}
	return out
}

// Set-up runs at least minSetups times, then again while the set-ups
// have taken less than setupBudget in total, at most maxSetups times;
// setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 101
	setupBudget = 5 * time.Second
)

// measure runs one phase. With a tracer the daemon is decorated and
// set up once.
func measure(ctx context.Context, env *runEnv, tr *tracer) (*phase, error) {
	in := env.in
	p := &phase{}
	lo, hi := minSetups, maxSetups
	if tr != nil {
		lo, hi = 1, 1
	}
	// heap_mb is what the live heap grows by from here: the daemon's
	// state plus this phase's own records, not the generated inputs.
	heapBase := liveHeapMiB()
	var d *daemon
	var total time.Duration
	for k := 0; ; k++ {
		dir := ""
		if in.Workload == wlIngest {
			dir = filepath.Join(env.dir, fmt.Sprintf("wal-%t-%d", tr != nil, k))
			if err := copyDir(env.logDir, dir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = startDaemon(ctx, in, dir, tr)
		el := time.Since(t0)
		if err != nil {
			return nil, err
		}
		total += el
		p.setups = append(p.setups, el.Seconds())
		p.replays = append(p.replays, d.replay.Seconds())
		p.recovers = append(p.recovers, d.recover.Seconds())
		if k+1 >= hi || (k+1 >= lo && total >= setupBudget) {
			break
		}
		if err := d.close(ctx); err != nil {
			return nil, fmt.Errorf("tearing down set-up %d: %w", k, err)
		}
		os.RemoveAll(dir)
	}
	if d.wal != nil && !d.eng.Stats().Durable {
		p.tl.fail("Engine.Stats().Durable is false on the WAL store")
	}

	t0 := mono()
	p.win = interval{t0 + int64(warmup), t0 + int64(warmup) + int64(in.Seconds)*int64(time.Second)}
	p.mon = startMonitor(d, p.win)
	var book *ingestBook
	switch in.Workload {
	case wlLifecycle:
		p.s = driveLifecycle(ctx, d.base, in, tr, t0, p.win, &p.tl)
	case wlIngest:
		p.s, book = driveIngest(ctx, d.base, in, tr, p.win, &p.tl)
		p.seen = book.seen
		p.missedNotices = book.pending
	case wlReads:
		p.s = driveReads(ctx, d.base, in, tr, p.win, &p.tl)
	}
	p.mon.wait()

	// End-of-run state: expire what the TTL allows, then weigh the
	// live heap.
	d.eng.GC()
	p.heapMiB = liveHeapMiB() - heapBase
	if d.wal != nil {
		if n := d.store.Len(); n > 0 {
			p.dirBytesPerLive = float64(dirBytes(d.dir)) / float64(n)
		}
	}
	if book == nil {
		if err := d.close(ctx); err != nil {
			return nil, err
		}
	} else if err := verifyDurable(ctx, d, book, p); err != nil {
		return nil, err
	}
	os.RemoveAll(d.dir)
	if tr != nil {
		p.layers = layerMetrics(tr, in.Workload, p.win, p.s.ops, p.seen)
	}
	return p, nil
}

// verifyDurable stops the daemon, closes the log, reopens it and
// checks that every 202-acknowledged operation survived (or was
// legitimately evicted by the TTL janitor).
func verifyDurable(ctx context.Context, d *daemon, book *ingestBook, p *phase) error {
	if err := d.close(ctx); err != nil {
		return fmt.Errorf("closing the daemon: %w", err)
	}
	// Every eviction the reopened log holds was logged before the log
	// closed, by a sweep that started earlier with a cutoff of its start
	// minus the TTL: an op that settled after evictBefore cannot have
	// been evicted.
	evictBefore := time.Now().Add(-opTTL(wlIngest))
	ws, err := engine.OpenWALStore(walConfig(d.dir, engine.WALSyncNone))
	if err != nil {
		return fmt.Errorf("reopening the log: %w", err)
	}
	errs := checkDurable(book.acks, book.seen, ws.Get, evictBefore)
	for _, e := range errs {
		p.tl.fail("%v", e)
	}
	return ws.Close()
}

// endToEnd derives the user-visible figures of a phase. Key marks the
// ones in the result line, under workload-independent names.
func endToEnd(workload string, p *phase, seconds int) []metric {
	s := p.s
	ms := func(xs []int64) []float64 { return nsTo(xs, 1e6) }
	setup := append([]float64(nil), p.setups...)
	out := []metric{{Name: "setup_s", Unit: "s", Value: median(setup), N: len(setup), Key: "setup_s"}}
	rate := float64(s.ops) / float64(seconds)
	var primary, secondary string
	switch workload {
	case wlLifecycle:
		out = append(out, metric{Name: "completed_ops_s", Unit: "ops/s", Value: rate, Key: "ops_per_s"})
		primary, secondary = "submit", "terminal"
	case wlIngest:
		out = append(out, metric{Name: "accepted_ops_s", Unit: "ops/s", Value: rate, Key: "ops_per_s"})
		primary, secondary = "submit", "terminal"
	case wlReads:
		out = append(out, metric{Name: "reads_s", Unit: "req/s", Value: rate, Key: "ops_per_s"})
		primary, secondary = "get", "list"
	}
	p50 := qmetric(primary+"_p50_ms", "ms", ms(s.primary), 50)
	p50.Key = "primary_p50_ms"
	s50 := qmetric(secondary+"_p50_ms", "ms", ms(s.secondary), 50)
	s50.Key = "secondary_p50_ms"
	out = append(out,
		p50, qmetric(primary+"_p99_ms", "ms", ms(s.primary), 99),
		s50, qmetric(secondary+"_p99_ms", "ms", ms(s.secondary), 99))
	if workload == wlReads {
		out = append(out, qmetric("filtered_list_p50_ms", "ms", ms(s.filtered), 50))
	}
	cpu := p.mon.after.cpu - p.mon.before.cpu
	out = append(out, metric{Name: "cpu_us_per_op", Unit: "us", Value: perOp(cpu*1e6, s.ops), Key: "cpu_us_per_op"})
	if workload != wlIngest {
		out = append(out, metric{Name: "heap_mb", Unit: "MiB", Value: p.heapMiB})
	}
	att := p.tl.attempted.Load()
	out = append(out, metric{Name: "failed_frac", Unit: "ratio", Value: float64(p.tl.failed.Load()) / float64(max(att, 1)), N: int(att)})
	return out
}

// observed are the per-layer figures every run records without
// tracing.
func observed(workload string, p *phase) []metric {
	s := p.s
	b, a := p.mon.before, p.mon.after
	out := []metric{
		{Name: "runtime.allocs_per_op", Unit: "count", Value: perOp(float64(a.allocs-b.allocs), s.ops)},
		{Name: "runtime.alloc_bytes_per_op", Unit: "B", Value: perOp(float64(a.allocBytes-b.allocBytes), s.ops)},
		{Name: "runtime.gc_cpu_frac", Unit: "ratio", Value: (a.gcCPU - b.gcCPU) / max(a.cpu-b.cpu, 1e-9)},
		{Name: "runtime.heap_mb", Unit: "MiB", Value: p.heapMiB},
		qmetric("sched.depth_p50", "count", p.mon.depth, 50),
	}
	switch workload {
	case wlLifecycle:
		out = append(out,
			metric{Name: "watch.gets_per_op", Unit: "count", Value: perOp(float64(s.gets), s.ops)},
			qmetric("load.lateness_ms_p99", "ms", nsTo(s.lateness, 1e6), 99))
	case wlIngest:
		dev := 0.0
		if a.writeBytes >= 0 && b.writeBytes >= 0 {
			dev = perOp(float64(a.writeBytes-b.writeBytes), s.ops)
		}
		out = append(out,
			qmetric("wal.fsyncs_per_s", "1/s", p.mon.fsyncs, 50),
			qmetric("wal.records_per_commit_p50", "count", p.mon.commit, 50),
			metric{Name: "wal.device_bytes_per_op", Unit: "B", Value: dev},
			metric{Name: "wal.dir_bytes_per_live_op", Unit: "B", Value: p.dirBytesPerLive},
			metric{Name: "wal.replay_s", Unit: "s", Value: median(append([]float64(nil), p.replays...)), N: len(p.replays)},
			metric{Name: "engine.recover_s", Unit: "s", Value: median(append([]float64(nil), p.recovers...)), N: len(p.recovers)},
			metric{Name: "notices.missed", Unit: "count", Value: float64(p.missedNotices)})
	}
	return out
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		switch {
		case m.Quantile && m.Pct > 0:
			fmt.Printf("%-36s %14.6g %-6s (p%.1f of n=%d)\n", m.Name, m.Value, m.Unit, m.Pct, m.N)
		case m.Quantile:
			fmt.Printf("%-36s %14.6g %-6s (n=%d: too few samples for the percentile rule, minimum shown)\n", m.Name, m.Value, m.Unit, m.N)
		case m.N > 0:
			fmt.Printf("%-36s %14.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
		default:
			fmt.Printf("%-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

func printFailures(label string, p *phase) {
	p.tl.mu.Lock()
	defer p.tl.mu.Unlock()
	for _, msg := range p.tl.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: %s run check failed: %s\n", label, msg)
	}
}

// printRecord prints what the numbers were measured on.
func printRecord(env *runEnv) {
	host, _ := os.Hostname()
	walFS := "-"
	if env.cfg.workload == wlIngest {
		walFS = fsType(env.dir)
	}
	fmt.Println("# run record")
	fmt.Printf("host=%s nproc=%d gomaxprocs=%d go=%s commit=%s source=%s wal_fs=%s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceDigest(), walFS)
	fmt.Printf("workload=%s seed=%d seconds=%d warmup=%s trace=%d", env.cfg.workload, env.cfg.seed, env.cfg.seconds, warmup, env.cfg.trace)
	if env.in.Rate > 0 {
		fmt.Printf(" rate=%.0f/s", env.in.Rate)
	}
	fmt.Println()
}

// commit is the VCS revision stamped into the binary, when the build
// had one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest identifies the daemon's source when no VCS revision
// was stamped (a checkout without .git): a hash over go.mod and every
// file under cmd/ and internal/, relative to the working directory.
func sourceDigest() string {
	h := sha256.New()
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
	}
	add("go.mod")
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
