package main

// The daemon under test, wired in-process exactly as cmd/daemon wires
// it with its default flags: 8 workers, queue 1024, the default shard
// count, a 4096-notice ring, group-commit WAL sync, 60s max wait.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"opdaemon/internal/api"
	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

const (
	daemonWorkers    = 8
	daemonQueueDepth = 1024
	daemonNoticeRing = 4096
	daemonMaxWait    = 60 * time.Second
	walGroupWindow   = 2 * time.Millisecond
	walSegmentBytes  = 16 << 20
	walMaxSegments   = 8
)

// opTTL is each workload's retention. lifecycle-mem keeps it short so
// the retained set levels off; ingest-wal keeps it short so the
// janitor's sweeps (every second, the floor) and the compactions they
// trigger run many times per run; reads-mem keeps everything.
func opTTL(workload string) time.Duration {
	switch workload {
	case wlLifecycle, wlIngest:
		return 2 * time.Second
	}
	return 0
}

// daemon is one running instance: store, engine, and HTTP server on a
// loopback port.
type daemon struct {
	store engine.Store
	wal   *engine.WALStore
	eng   *engine.Engine
	srv   *http.Server
	base  string
	dir   string
	// replay and recover time the two halves of a durable set-up:
	// OpenWALStore and Engine.Recover.
	replay, recover time.Duration
}

// startDaemon builds and starts the daemon for in. dir is the WAL
// directory (ingest-wal only). A non-nil tracer decorates the store,
// the handlers and the HTTP handler.
func startDaemon(ctx context.Context, in *Inputs, dir string, tr *tracer) (*daemon, error) {
	d := &daemon{dir: dir}
	switch in.Workload {
	case wlIngest:
		t0 := time.Now()
		ws, err := engine.OpenWALStore(walConfig(dir, engine.WALSyncGroup))
		d.replay = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("opening wal store: %w", err)
		}
		d.store, d.wal = ws, ws
	case wlReads:
		d.store = memoryStore()
		preload(d.store, in.Preload)
	default:
		d.store = memoryStore()
	}
	store := d.store
	if tr != nil {
		store = tr.wrapStore(store)
	}
	d.eng = engine.New(engine.Config{
		Workers:        daemonWorkers,
		QueueDepth:     daemonQueueDepth,
		Store:          store,
		OpTTL:          opTTL(in.Workload),
		NoticeRingSize: daemonNoticeRing,
		QueuePolicy:    engine.PolicyStrict,
		BandWeights:    [3]int{8, 4, 1},
		DRRQuantum:     1,
		PromoteAfter:   5 * time.Second,
	})
	registerHandlers(d.eng, tr)
	if d.wal != nil {
		t0 := time.Now()
		_, _, err := d.eng.Recover(ctx)
		d.recover = time.Since(t0)
		if err != nil {
			d.close(ctx)
			return nil, fmt.Errorf("recovering: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close(ctx)
		return nil, err
	}
	var h http.Handler = api.New(d.eng, api.WithMaxWait(daemonMaxWait), api.WithClientHeaderTrust(true))
	if tr != nil {
		h = tr.wrapHTTP(h)
	}
	d.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      daemonMaxWait + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := d.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serving: %v\n", err)
		}
	}()
	d.base = "http://" + ln.Addr().String()
	return d, nil
}

// close closes the listener and every connection, drains the engine
// and closes the log. It returns when no handler is running.
func (d *daemon) close(ctx context.Context) error {
	if d.srv != nil {
		d.srv.Close()
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := d.eng.Shutdown(ctx)
	if d.wal != nil {
		err = errors.Join(err, d.wal.Close())
	}
	return err
}

func walConfig(dir string, sync engine.WALSyncMode) engine.WALConfig {
	return engine.WALConfig{
		Dir:          dir,
		Sync:         sync,
		GroupWindow:  walGroupWindow,
		SegmentBytes: walSegmentBytes,
		MaxSegments:  walMaxSegments,
		Shards:       engine.DefaultShardCount(),
	}
}

// memoryStore is the daemon's default in-memory store.
func memoryStore() engine.Store {
	if n := engine.DefaultShardCount(); n > 1 {
		return engine.NewShardedStore(n)
	}
	return engine.NewMemStore()
}

// registerHandlers installs the kinds the generated inputs use, as the
// daemon's built-in handlers implement them; a tracer wraps each one to
// time handler runs.
func registerHandlers(eng *engine.Engine, tr *tracer) {
	add := func(kind string, h engine.Handler, opts ...engine.RegisterOption) {
		if tr != nil {
			h = tr.wrapHandler(h)
		}
		eng.Register(kind, h, opts...)
	}
	add("noop", func(context.Context, *core.Operation) (any, error) {
		return map[string]any{"ok": true}, nil
	})
	add("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	})
	add("fail", func(context.Context, *core.Operation) (any, error) {
		return nil, errors.New(failMessage)
	})
}

// preload installs reads-mem's history straight into the store, in
// batches, before the engine exists.
func preload(store engine.Store, specs []PreOp) {
	const chunk = 4096
	for lo := 0; lo < len(specs); lo += chunk {
		batch := make([]*core.Operation, 0, chunk)
		for _, s := range specs[lo:min(lo+chunk, len(specs))] {
			batch = append(batch, &core.Operation{
				ID:        s.ID,
				Kind:      s.Kind,
				Params:    s.Params,
				Status:    core.Status(s.Status),
				Result:    s.Result,
				Error:     s.Error,
				Priority:  core.PriorityNormal,
				CreatedAt: s.Created,
				UpdatedAt: s.Created.Add(time.Millisecond),
			})
		}
		store.PutBatch(batch)
	}
}

// writeLog writes ingest-wal's recovery log into dir through the WAL
// store itself, so the bytes are exactly what a previous daemon would
// have left behind.
func writeLog(dir string, ops []LogOp) error {
	ws, err := engine.OpenWALStore(walConfig(dir, engine.WALSyncNone))
	if err != nil {
		return err
	}
	const chunk = 1000
	for lo := 0; lo < len(ops); lo += chunk {
		part := ops[lo:min(lo+chunk, len(ops))]
		batch := make([]*core.Operation, len(part))
		for i, o := range part {
			batch[i] = &core.Operation{
				ID:        o.ID,
				Kind:      o.Kind,
				Params:    o.Params,
				Status:    core.StatusQueued,
				Priority:  core.PriorityNormal,
				CreatedAt: o.Created,
				UpdatedAt: o.Created,
			}
		}
		ws.PutBatch(batch)
		for _, o := range part {
			if o.Final == "queued" {
				continue
			}
			if err := ws.Update(o.ID, func(op *core.Operation) {
				op.Transition(core.StatusRunning, o.Created.Add(time.Millisecond))
			}); err != nil {
				return errors.Join(err, ws.Close())
			}
			if o.Final == "running" {
				continue
			}
			final := core.Status(o.Final)
			if err := ws.Update(o.ID, func(op *core.Operation) {
				op.Transition(final, o.Created.Add(2*time.Millisecond))
				switch {
				case final == core.StatusDone && o.Kind == "noop":
					op.Result = noopResult
				case final == core.StatusDone:
					op.Result = marshalParams(o.Params)
				case final == core.StatusFailed:
					op.Error = failMessage
				default:
					op.Error = core.ErrCancelled.Error()
				}
			}); err != nil {
				return errors.Join(err, ws.Close())
			}
			if o.Evicted {
				ws.Delete(o.ID)
			}
		}
	}
	return ws.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
