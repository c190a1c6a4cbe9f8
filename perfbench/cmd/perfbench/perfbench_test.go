package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

var testSizes = sizes{LogOps: 300, Preload: 500, BatchPool: 8, ReadCycle: 64}

func mustGenerate(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	in, err := generate(workload, seed, 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := mustGenerate(t, wl, 7), mustGenerate(t, wl, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", wl)
		}
		if c := mustGenerate(t, wl, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", wl)
		}
	}
}

func TestGeneratedIDsAreValidAndUnique(t *testing.T) {
	in, err := generate(wlReads, 3, 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, op := range in.Preload {
		if !core.ValidID(op.ID) || seen[op.ID] {
			t.Fatalf("preload %d: bad or duplicate ID %q", i, op.ID)
		}
		seen[op.ID] = true
		if pos, ok := preloadPos(in.Preload, op.ID); !ok || pos != i {
			t.Fatalf("preloadPos(%q) = %d, %v; want %d", op.ID, pos, ok, i)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile sorts
		}
		return xs
	}
	cases := []struct {
		n       int
		p       float64
		value   float64
		pct     float64
		comment string
	}{
		{1000, 99, 990, 99, "ten samples beyond p99 exactly"},
		{1000, 50, 500, 50, "median"},
		{500, 99, 490, 98, "p99 would leave five beyond; lowered to p98"},
		{15, 50, 5, 100.0 / 3, "median lowered so ten samples stay beyond"},
		{10, 50, 1, 0, "too few samples for any percentile: minimum, Pct 0"},
	}
	for _, c := range cases {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.value || q.N != c.n || (q.Pct-c.pct) > 1e-9 || (c.pct-q.Pct) > 1e-9 {
			t.Errorf("%s: percentile(n=%d, p%v) = %+v; want value %v pct %v", c.comment, c.n, c.p, q, c.value, c.pct)
		}
	}
	if q := percentile(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("empty samples: %+v", q)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{10, 20}}, 90},
		{[]interval{{10, 20}, {15, 30}}, 80},          // overlapping children count once
		{[]interval{{10, 20}, {10, 20}}, 90},          // duplicates count once
		{[]interval{{-5, 5}, {90, 120}}, 85},          // clipped to the parent
		{[]interval{{100, 150}, {-50, 0}}, 100},       // entirely outside
		{[]interval{{30, 40}, {0, 100}, {50, 60}}, 0}, // fully covered
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, c.kids, got, c.want)
		}
	}
}

// exercise runs the same mutation and read sequence against a store
// and returns a transcript of every observable result.
func exercise(s engine.Store) string {
	var b strings.Builder
	at := baseTime
	ops := make([]*core.Operation, 6)
	for i := range ops {
		ops[i] = &core.Operation{
			ID: fmt.Sprintf("%032x", i+1), Kind: "echo", Status: core.StatusQueued,
			CreatedAt: at.Add(time.Duration(i) * time.Second), UpdatedAt: at.Add(time.Duration(i) * time.Second),
		}
	}
	s.PutBatch(ops[:5])
	s.Put(ops[5])
	for i, id := range []string{ops[0].ID, ops[1].ID, ops[2].ID} {
		err := s.Update(id, func(op *core.Operation) {
			op.Transition(core.StatusRunning, at.Add(time.Minute))
			op.Transition(core.StatusDone, at.Add(time.Duration(i)*time.Minute))
		})
		fmt.Fprintf(&b, "update %d: %v\n", i, err)
	}
	fmt.Fprintf(&b, "update missing: %v\n", errors.Is(s.Update("ff", func(*core.Operation) {}), core.ErrNotFound))
	s.Delete(ops[4].ID)
	for _, op := range ops {
		got, err := s.Get(op.ID)
		if err != nil {
			fmt.Fprintf(&b, "get %s: %v\n", op.ID, err)
			continue
		}
		fmt.Fprintf(&b, "get %s: %s %s\n", got.ID, got.Status, got.UpdatedAt.Format(time.RFC3339))
	}
	for _, q := range []engine.ListQuery{{}, {Limit: 2}, {Status: core.StatusDone}, {Cursor: ops[3].ID, Limit: 2}} {
		page, err := s.List(q)
		fmt.Fprintf(&b, "list %+v: %v", q, err)
		for _, op := range page {
			fmt.Fprintf(&b, " %s", op.ID[28:])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "sweep: %d len: %d\n", s.SweepTerminalBefore(at.Add(90*time.Second)), s.Len())
	return b.String()
}

func TestStoreDecoratorIsTransparent(t *testing.T) {
	plain := exercise(engine.NewShardedStore(4))
	tr := newTracer()
	traced := exercise(tr.wrapStore(engine.NewShardedStore(4)))
	if plain != traced {
		t.Fatalf("decorated store diverged:\nplain:\n%s\ntraced:\n%s", plain, traced)
	}
	if len(tr.store) == 0 {
		t.Fatal("decorator recorded no spans")
	}
	for _, s := range tr.store {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}

	dir := t.TempDir()
	ws, err := engine.OpenWALStore(walConfig(dir, engine.WALSyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if got := exercise(tr.wrapStore(ws)); got != plain {
		t.Fatalf("decorated WAL store diverged:\nplain:\n%s\ntraced:\n%s", plain, got)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name    string
		durable bool
		store   func() (engine.Store, func())
	}{
		{"memory", false, func() (engine.Store, func()) { return engine.NewShardedStore(2), func() {} }},
		{"wal", true, func() (engine.Store, func()) {
			ws, err := engine.OpenWALStore(walConfig(filepath.Join(dir, "stats"), engine.WALSyncGroup))
			if err != nil {
				t.Fatal(err)
			}
			return ws, func() { ws.Close() }
		}},
	} {
		s, done := c.store()
		eng := engine.New(engine.Config{Store: tr.wrapStore(s)})
		if got := eng.Stats().Durable; got != c.durable {
			t.Errorf("%s: Stats().Durable = %v under the decorator, want %v", c.name, got, c.durable)
		}
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		done()
	}
}

func TestCheckOutcome(t *testing.T) {
	echo := Item{Kind: "echo", Params: json.RawMessage(`{"a":1,"s":"xy"}`)}
	if err := checkOutcome(echo, "done", json.RawMessage(`{"a":1, "s":"xy"}`)); err != nil {
		t.Errorf("matching echo result rejected: %v", err)
	}
	for _, bad := range []struct {
		status string
		result string
	}{
		{"done", `{"a":2,"s":"xy"}`}, // corrupted value
		{"done", `{"a":1}`},          // missing key
		{"done", `not json`},
		{"failed", `{"a":1,"s":"xy"}`},
	} {
		if checkOutcome(echo, bad.status, json.RawMessage(bad.result)) == nil {
			t.Errorf("corrupted echo outcome %s %s accepted", bad.status, bad.result)
		}
	}
	if checkOutcome(Item{Kind: "fail"}, "done", nil) == nil {
		t.Error("fail op that ended done accepted")
	}
	if checkOutcome(Item{Kind: "noop"}, "done", json.RawMessage(`{"ok":false}`)) == nil {
		t.Error("wrong noop result accepted")
	}
}

func TestCheckDurable(t *testing.T) {
	now := time.Now()
	item := Item{Kind: "noop"}
	store := map[string]*core.Operation{
		"present": {ID: "present", Status: core.StatusDone, Result: noopResult},
		"running": {ID: "running", Status: core.StatusRunning},
	}
	get := func(id string) (*core.Operation, error) {
		if op, ok := store[id]; ok {
			return op, nil
		}
		return nil, core.ErrNotFound
	}
	acks := map[string]ack{"present": {Item: item}, "evicted": {Item: item}}
	seen := map[string]seenNotice{"evicted": {At: now.Add(-time.Minute)}, "present": {At: now}}
	if errs := checkDurable(acks, seen, get, now.Add(-time.Second)); len(errs) != 0 {
		t.Fatalf("clean log rejected: %v", errs)
	}
	acks["missing"] = ack{Item: item}
	seen["missing"] = seenNotice{At: now}
	if errs := checkDurable(acks, seen, get, now.Add(-time.Second)); len(errs) != 1 {
		t.Fatalf("missing acknowledged op: got %v, want one error", errs)
	}
	delete(acks, "missing")
	acks["running"] = ack{Item: item}
	if errs := checkDurable(acks, seen, get, now.Add(-time.Second)); len(errs) != 1 {
		t.Fatalf("op not done after reopen: got %v, want one error", errs)
	}
}

func TestCheckPage(t *testing.T) {
	in, err := generate(wlReads, 5, 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	pre := in.Preload
	ref := func(pos int) opRef { return opRef{pre[pos].ID, pre[pos].Status} }
	n := len(pre)
	first := []opRef{ref(n - 1), ref(n - 2), ref(n - 3)}
	last, err := checkPage(first, pre, n, "", 3)
	if err != nil || last != n-3 {
		t.Fatalf("valid first page: last %d, %v", last, err)
	}
	if _, err := checkPage([]opRef{ref(n - 4), ref(n - 5)}, pre, last, "", 2); err != nil {
		t.Fatalf("valid cursor page rejected: %v", err)
	}
	bad := map[string][]opRef{
		"out of order":          {ref(n - 2), ref(n - 1), ref(n - 3)},
		"skips the newest":      {ref(n - 2), ref(n - 3), ref(n - 4)},
		"unknown op":            {{ID: strings.Repeat("0", 32), Status: "done"}, ref(n - 2), ref(n - 3)},
		"wrong status reported": {{ID: pre[n-1].ID, Status: "queued"}, ref(n - 2), ref(n - 3)},
		"short page":            {ref(n - 1)},
	}
	for name, page := range bad {
		if _, err := checkPage(page, pre, n, "", 3); err == nil {
			t.Errorf("%s: page accepted", name)
		}
	}
	if _, err := checkPage([]opRef{ref(n - 3), ref(n - 4)}, pre, last, "", 2); err == nil {
		t.Error("page overlapping the previous one accepted")
	}

	var failed []opRef
	for i := n - 1; i >= 0 && len(failed) < 3; i-- {
		if pre[i].Status == "failed" {
			failed = append(failed, ref(i))
		}
	}
	if _, err := checkPage(failed, pre, n, "failed", 3); err != nil {
		t.Fatalf("valid filtered page rejected: %v", err)
	}
	var mixed []opRef
	for i := n - 1; len(mixed) < 3; i-- {
		if pre[i].Status != "failed" {
			mixed = append(mixed, ref(i))
		}
	}
	if _, err := checkPage(mixed, pre, n, "failed", 3); err == nil {
		t.Error("filtered page holding other statuses accepted")
	}
}

func TestScanOps(t *testing.T) {
	op := &core.Operation{ID: strings.Repeat("ab", 16), Kind: "echo", Status: core.StatusDone,
		Params: map[string]any{"a": 1.0, "s": "x"}, Result: json.RawMessage(`{"a":1,"s":"x"}`), CreatedAt: baseTime}
	single, _ := json.Marshal(map[string]any{"type": "sync", "status": "OK", "status_code": 200, "result": op})
	list, _ := json.Marshal(map[string]any{"type": "sync", "status": "OK", "status_code": 200, "result": []*core.Operation{op, op}})
	empty := []byte(`{"type":"sync","status":"OK","status_code":200,"result":[]}`)
	for _, c := range []struct {
		body   []byte
		single bool
		want   int
	}{{single, true, 1}, {list, false, 2}, {empty, false, 0}} {
		refs, err := scanOps(c.body, c.single, nil)
		if err != nil || len(refs) != c.want {
			t.Fatalf("scanOps(%s) = %v, %v; want %d ops", c.body, refs, err, c.want)
		}
		for _, r := range refs {
			if r.ID != op.ID || r.Status != "done" {
				t.Fatalf("scanOps(%s) = %v", c.body, refs)
			}
		}
	}
	// Any other shape is a failed check, never a silent empty result.
	spaced, _ := json.MarshalIndent(map[string]any{"status": "OK", "result": []*core.Operation{op}}, "", "  ")
	noStatus := []byte(`{"result":[{"id":"` + op.ID + `","kind":"echo"},{"id":"` + op.ID + `","status":"done"}]}`)
	for _, c := range []struct {
		name   string
		body   []byte
		single bool
	}{
		{"indented encoding", spaced, false},
		{"op without a status", noStatus, false},
		{"list where one op is due", list, true},
		{"empty result where one op is due", empty, true},
		{"no result", []byte(`{"type":"error","status_code":500}`), false},
	} {
		if refs, err := scanOps(c.body, c.single, nil); err == nil {
			t.Errorf("%s: scanOps accepted %s as %v", c.name, c.body, refs)
		}
	}
}

// TestWorkloadsRunClean runs every workload end to end for a second on
// small inputs and requires zero failed requests and checks.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon for several seconds")
	}
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			in, err := generate(wl, 11, 1, sizes{LogOps: 2000, Preload: 3000, BatchPool: 16, ReadCycle: 512})
			if err != nil {
				t.Fatal(err)
			}
			env := &runEnv{cfg: config{workload: wl, seconds: 1}, in: in, dir: t.TempDir()}
			if wl == wlIngest {
				env.logDir = filepath.Join(env.dir, "seedlog")
				if err := writeLog(env.logDir, in.Log); err != nil {
					t.Fatal(err)
				}
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				p, err := measure(ctx, env, tr)
				if err != nil {
					t.Fatal(err)
				}
				if f := p.tl.failed.Load(); f != 0 || p.s.ops == 0 {
					t.Fatalf("traced=%v: %d failures (%v), %d ops", tr != nil, f, p.tl.msgs, p.s.ops)
				}
				if tr != nil && len(p.layers) == 0 {
					t.Fatal("traced run produced no per-layer metrics")
				}
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the result line in step
// with the repository's BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	same := func(label string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared metrics, BENCHMARK.json lists %d", label, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: declared %s [%s], BENCHMARK.json %s [%s]", label, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", declaredE2E, spec.EndToEnd)
	same("per_layer", declaredLayers, spec.PerLayer)
}
