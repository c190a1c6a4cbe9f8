package main

// Seeded input generation. Everything the program under test receives
// — request bodies, arrival times, the recovery log, the preloaded
// history — is built here from the seed before any timing starts; the
// seed itself never reaches the daemon.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"
)

// Workload names, as passed to --workload.
const (
	wlLifecycle = "lifecycle-mem"
	wlIngest    = "ingest-wal"
	wlReads     = "reads-mem"
)

var workloads = []string{wlLifecycle, wlIngest, wlReads}

// lifecycleRate is lifecycle-mem's fixed open-loop arrival rate in
// operations per second: about half of the rate at which its latency
// stops being flat on a 2-core host (see README.md).
const lifecycleRate = 2000.0

// warmup is the unmeasured lead-in of every run.
const warmup = 2 * time.Second

// listLimit is the page size of every list request.
const listLimit = 50

// ingestBatch is how many operations one ingest-wal POST carries.
const ingestBatch = 10

// baseTime anchors every generated timestamp, so the same seed yields
// the same bytes on every run.
var baseTime = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// sizes are the input volumes; tests shrink them.
type sizes struct {
	// LogOps is how many operations the ingest-wal recovery log holds.
	LogOps int
	// Preload is how many terminal operations reads-mem starts with.
	Preload int
	// BatchPool is how many distinct batch bodies ingest-wal cycles
	// through.
	BatchPool int
	// ReadCycle is the length of reads-mem's cyclic request sequence.
	ReadCycle int
}

var defaultSizes = sizes{LogOps: 100_000, Preload: 200_000, BatchPool: 2048, ReadCycle: 1 << 16}

// Item is one operation as a client submits it.
type Item struct {
	Kind string
	// Params is the compact JSON object sent as params; keys are
	// sorted, so it is also exactly what an echo result must equal.
	Params json.RawMessage
}

// Arrival is one lifecycle-mem submission: due Due after the start of
// the run, with a pre-built POST body.
type Arrival struct {
	Due  time.Duration
	Item Item
	Body []byte
}

// Batch is one pre-built ingest-wal POST body and its items.
type Batch struct {
	Items []Item
	Body  []byte
}

// LogOp is one operation of the ingest-wal recovery log: put queued,
// then (unless Final is queued) moved to running, then (unless Final
// is running) settled as Final, and deleted again if Evicted.
type LogOp struct {
	ID      string
	Kind    string
	Params  map[string]any
	Created time.Time
	Final   string
	Evicted bool
}

// PreOp is one terminal operation reads-mem preloads. Preload is in
// ascending Created order, so index order is the store's oldest-first
// order, and each ID ends in its index (see preloadPos).
type PreOp struct {
	ID      string
	Kind    string
	Params  map[string]any
	Status  string
	Result  json.RawMessage
	Error   string
	Created time.Time
}

// Read kinds of reads-mem's request mix.
const (
	readGet uint8 = iota
	readList
	readFiltered
)

// ReadReq is one entry of reads-mem's cyclic request sequence: a point
// GET of Preload[Target], a newest-first list walk of Pages pages, or
// one status=failed page.
type ReadReq struct {
	Kind   uint8
	Target int
	Pages  int
}

// Inputs is everything one run sends, derived from the seed alone.
type Inputs struct {
	Workload string
	Seconds  int
	Rate     float64
	Arrivals []Arrival
	Batches  []Batch
	Log      []LogOp
	Preload  []PreOp
	Reads    []ReadReq
}

// generate builds the inputs of one workload run.
func generate(workload string, seed uint64, seconds int, sz sizes) (*Inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6f70646165_6d6f6e))
	in := &Inputs{Workload: workload, Seconds: seconds}
	switch workload {
	case wlLifecycle:
		in.Rate = lifecycleRate
		horizon := warmup + time.Duration(seconds)*time.Second
		var due time.Duration
		for {
			due += time.Duration(rng.ExpFloat64() / in.Rate * float64(time.Second))
			if due >= horizon {
				break
			}
			it := lifecycleItem(rng)
			in.Arrivals = append(in.Arrivals, Arrival{Due: due, Item: it, Body: itemBody(nil, it)})
		}
	case wlIngest:
		for range sz.BatchPool {
			b := Batch{Items: make([]Item, ingestBatch)}
			b.Body = append(b.Body, '[')
			for i := range b.Items {
				kind := "echo"
				if rng.IntN(5) == 0 {
					kind = "noop"
				}
				b.Items[i] = Item{Kind: kind, Params: marshalParams(randParams(rng))}
				if i > 0 {
					b.Body = append(b.Body, ',')
				}
				b.Body = itemBody(b.Body, b.Items[i])
			}
			b.Body = append(b.Body, ']')
			in.Batches = append(in.Batches, b)
		}
		in.Log = genLog(rng, sz.LogOps)
	case wlReads:
		in.Preload = genPreload(rng, sz.Preload)
		for range sz.ReadCycle {
			var r ReadReq
			switch x := rng.IntN(100); {
			case x < 90:
				r = ReadReq{Kind: readGet, Target: rng.IntN(len(in.Preload))}
			case x < 98:
				r = ReadReq{Kind: readList, Pages: 2 + rng.IntN(4)}
			default:
				r = ReadReq{Kind: readFiltered, Pages: 1}
			}
			in.Reads = append(in.Reads, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return in, nil
}

// lifecycleItem draws from lifecycle-mem's kind mix: mostly echo, some
// noop, a few fail.
func lifecycleItem(rng *rand.Rand) Item {
	kind := "echo"
	switch x := rng.IntN(100); {
	case x < 10:
		kind = "noop"
	case x < 15:
		kind = "fail"
	}
	return Item{Kind: kind, Params: marshalParams(randParams(rng))}
}

// paramKeys never collide with operation field names, so the first
// "id" in a reply is always an operation's (the tracer relies on it).
var paramKeys = []string{"a", "b", "n", "s", "t"}

// randParams returns one to three small seeded params.
func randParams(rng *rand.Rand) map[string]any {
	p := make(map[string]any)
	for range 1 + rng.IntN(3) {
		k := paramKeys[rng.IntN(len(paramKeys))]
		if rng.IntN(2) == 0 {
			// Integers below 2^53 survive the float64 round trip of a
			// JSON decode exactly, so echo results compare byte for byte.
			p[k] = rng.IntN(1_000_000)
		} else {
			p[k] = randWord(rng, 4+rng.IntN(9))
		}
	}
	return p
}

const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[rng.IntN(len(alnum))]
	}
	return string(b)
}

// randID returns a 32-hex-digit operation ID, the shape core.ValidID
// accepts.
func randID(rng *rand.Rand) string {
	return fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
}

func marshalParams(p map[string]any) json.RawMessage {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // ints and strings always marshal
	}
	return b
}

// itemBody appends the JSON submission of it to dst.
func itemBody(dst []byte, it Item) []byte {
	dst = append(dst, `{"kind":`...)
	dst = strconv.AppendQuote(dst, it.Kind)
	dst = append(dst, `,"params":`...)
	dst = append(dst, it.Params...)
	return append(dst, '}')
}

// noopResult is what the noop handler returns, as the daemon encodes it.
var noopResult = json.RawMessage(`{"ok":true}`)

// failMessage is the fail handler's error text.
const failMessage = "operation failed on request"

// genLog builds the ingest-wal recovery log: a realistic lifecycle
// history in which most operations settled, a share was later evicted,
// and a few were still queued or running when the previous process
// stopped.
func genLog(rng *rand.Rand, n int) []LogOp {
	ops := make([]LogOp, n)
	for i := range ops {
		op := LogOp{
			ID:      randID(rng),
			Params:  randParams(rng),
			Created: baseTime.Add(time.Duration(i) * time.Millisecond),
		}
		switch x := rng.IntN(100); {
		case x < 85:
			op.Final, op.Kind = "done", "echo"
			if rng.IntN(5) == 0 {
				op.Kind = "noop"
			}
		case x < 93:
			op.Final, op.Kind = "failed", "fail"
		default:
			op.Final, op.Kind = "cancelled", "echo"
		}
		op.Evicted = rng.IntN(10) < 3
		ops[i] = op
	}
	// The newest few were interrupted mid-flight.
	for i := max(0, n-32); i < n; i++ {
		ops[i].Final, ops[i].Kind, ops[i].Evicted = "running", "echo", false
		if i%2 == 0 {
			ops[i].Final = "queued"
		}
	}
	return ops
}

// genPreload builds reads-mem's history: terminal operations only, in
// a seeded mix of done, failed and cancelled.
func genPreload(rng *rand.Rand, n int) []PreOp {
	ops := make([]PreOp, n)
	for i := range ops {
		p := randParams(rng)
		op := PreOp{
			// The low half of the ID is the position, so a reply's
			// IDs map back to preload without an index.
			ID:      fmt.Sprintf("%016x%016x", rng.Uint64(), i),
			Params:  p,
			Created: baseTime.Add(time.Duration(i) * time.Millisecond),
		}
		switch x := rng.IntN(100); {
		case x < 80:
			op.Status, op.Kind, op.Result = "done", "echo", marshalParams(p)
			if rng.IntN(10) == 0 {
				op.Kind, op.Result = "noop", noopResult
			}
		case x < 95:
			op.Status, op.Kind, op.Error = "failed", "fail", failMessage
		default:
			op.Status, op.Kind, op.Error = "cancelled", "echo", "operation cancelled"
		}
		ops[i] = op
	}
	return ops
}
