package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/lsm"
)

// Service-level request failures. The HTTP layer maps these to status
// codes; direct embedders (the experiment harness, tests) match on
// them with errors.Is.
var (
	// ErrOverloaded means admission control refused the request: the
	// in-flight key budget is exhausted (reads) or too many writes are
	// already queued behind the LSM write stall (writes).
	ErrOverloaded = errors.New("server: overloaded")
	// ErrNoStore means a KV endpoint was hit on a membership-only server.
	ErrNoStore = errors.New("server: no KV store configured")
	// ErrReadOnly means an insert was attempted while the serving filter
	// is not a concurrency-safe mutable (sharded) filter.
	ErrReadOnly = errors.New("server: serving filter is read-only")
	// ErrShutdown is returned to requests that arrive after Close.
	ErrShutdown = errors.New("server: shutting down")
)

// Config sizes the service core. The zero value selects the defaults.
type Config struct {
	// MaxInflightKeys is the read admission budget: the total keys
	// admitted and not yet answered, across point and batch requests
	// (default 65536). Excess requests fail fast with ErrOverloaded.
	MaxInflightKeys int
	// MaxInflightWrites bounds writes concurrently blocked in the
	// store's write path (default 1024). The LSM write stall is the
	// backpressure mechanism; this budget converts "stalled too deep"
	// into fast 429s instead of unbounded goroutine pileup.
	MaxInflightWrites int
}

func (c *Config) fill() {
	if c.MaxInflightKeys == 0 {
		c.MaxInflightKeys = 65536
	}
	if c.MaxInflightWrites == 0 {
		c.MaxInflightWrites = 1024
	}
}

// Engine is the service core: the membership filter behind an atomic
// reload handle, an optional LSM KV store, and admission control in
// front of both. Every request runs on its caller's goroutine; batching
// is the client's job, via ContainsBatch/GetBatch frames. The HTTP
// layer (server.go) and the load generator drive the same Engine
// methods, so what the experiment measures is what the server serves.
type Engine struct {
	cfg   Config
	m     Metrics
	fh    filterHandle
	store *lsm.Store

	inflightKeys   atomic.Int64
	inflightWrites atomic.Int64
	closed         atomic.Bool
	reloadMu       sync.Mutex
	start          time.Time
}

// NewEngine builds the service core over a serving filter (required)
// and an optional KV store (nil disables the KV endpoints). The store
// is borrowed, not owned: Close leaves the store to its creator.
func NewEngine(filter core.Filter, store *lsm.Store, cfg Config) (*Engine, error) {
	if filter == nil {
		return nil, fmt.Errorf("server: nil serving filter")
	}
	cfg.fill()
	e := &Engine{cfg: cfg, store: store, start: time.Now()}
	e.fh.install(filter, "")
	return e, nil
}

// admitKeys charges n keys against the read budget; the caller must
// releaseKeys(n) when the request completes. Over budget, the request
// is rejected without queueing — fail fast is the point.
func (e *Engine) admitKeys(n int) bool {
	if e.inflightKeys.Add(int64(n)) > int64(e.cfg.MaxInflightKeys) {
		e.inflightKeys.Add(int64(-n))
		e.m.RejectedRead.Add(1)
		return false
	}
	return true
}

func (e *Engine) releaseKeys(n int) { e.inflightKeys.Add(int64(-n)) }

// Contains reports membership of key against the current filter
// snapshot. The request is synchronous, so ctx is not consulted; the
// HTTP layer handles cancellation. The hot path allocates nothing.
func (e *Engine) Contains(_ context.Context, key uint64) (bool, error) {
	e.m.ReqContains.Add(1)
	if e.closed.Load() {
		return false, ErrShutdown
	}
	if !e.admitKeys(1) {
		return false, ErrOverloaded
	}
	found := e.fh.load().Filter.Contains(key)
	e.releaseKeys(1)
	return found, nil
}

// ContainsBatch probes a whole batch directly against the current
// filter snapshot (the caller already amortized its fan-in). out must
// be at least len(keys) long. The hot path allocates nothing.
func (e *Engine) ContainsBatch(keys []uint64, out []bool) error {
	e.m.ReqContainsBatch.Add(1)
	if e.closed.Load() {
		return ErrShutdown
	}
	if !e.admitKeys(len(keys)) {
		return ErrOverloaded
	}
	core.ContainsBatch(e.fh.load().Filter, keys, out[:len(keys)])
	e.releaseKeys(len(keys))
	return nil
}

// Get performs one LSM point lookup; like Contains it is synchronous
// and ignores ctx. lsm.Store.Get and GetBatch give identical results
// and I/O accounting, so a point read answers exactly as a one-key
// batch would.
func (e *Engine) Get(_ context.Context, key uint64) (uint64, bool, error) {
	e.m.ReqGet.Add(1)
	if e.store == nil {
		return 0, false, ErrNoStore
	}
	if e.closed.Load() {
		return 0, false, ErrShutdown
	}
	if !e.admitKeys(1) {
		return 0, false, ErrOverloaded
	}
	value, found := e.store.Get(key)
	e.releaseKeys(1)
	return value, found, nil
}

// GetBatch performs a batch of LSM point lookups directly.
func (e *Engine) GetBatch(keys []uint64, values []uint64, found []bool) error {
	e.m.ReqGetBatch.Add(1)
	if e.store == nil {
		return ErrNoStore
	}
	if e.closed.Load() {
		return ErrShutdown
	}
	if !e.admitKeys(len(keys)) {
		return ErrOverloaded
	}
	e.store.GetBatch(keys, values[:len(keys)], found[:len(keys)])
	e.releaseKeys(len(keys))
	return nil
}

// Apply applies KV mutations through the store's write path. The
// store's write-stall machinery is the backpressure: when the flush
// backlog is over budget, Apply blocks, blocked writers accumulate
// against MaxInflightWrites, and writes beyond that budget are
// rejected fast with ErrOverloaded instead of piling up goroutines.
func (e *Engine) Apply(entries ...lsm.Entry) error {
	if len(entries) == 1 && entries[0].Tombstone {
		e.m.ReqDelete.Add(1)
	} else {
		e.m.ReqPut.Add(1)
	}
	if e.store == nil {
		return ErrNoStore
	}
	if e.closed.Load() {
		return ErrShutdown
	}
	if e.inflightWrites.Add(1) > int64(e.cfg.MaxInflightWrites) {
		e.inflightWrites.Add(-1)
		e.m.RejectedWrite.Add(1)
		return ErrOverloaded
	}
	err := e.store.Apply(entries...)
	e.inflightWrites.Add(-1)
	if err != nil {
		e.m.ErrInternal.Add(1)
	}
	return err
}

// Insert adds key to the serving filter, if it is mutable (a sharded
// wrapper, whose per-shard locks make concurrent Insert+Contains
// safe). Filters loaded read-only report ErrReadOnly.
func (e *Engine) Insert(key uint64) error {
	sh, err := e.mutable(1)
	if err != nil {
		return err
	}
	return sh.Insert(key)
}

// InsertBatch adds every key to the serving filter with the checks of
// Insert, taking each shard's lock once per batch instead of once per
// key (see concurrent.Sharded.InsertBatch).
func (e *Engine) InsertBatch(keys []uint64) error {
	sh, err := e.mutable(len(keys))
	if err != nil {
		return err
	}
	return sh.InsertBatch(keys)
}

// mutable counts n keys toward the insert counter, which counts keys,
// not requests, and returns the serving filter if it accepts inserts.
func (e *Engine) mutable(n int) (*concurrent.Sharded, error) {
	e.m.ReqInsert.Add(int64(n))
	if e.closed.Load() {
		return nil, ErrShutdown
	}
	sh := e.fh.load().Mutable()
	if sh == nil {
		return nil, ErrReadOnly
	}
	return sh, nil
}

// Reload loads a .bbf file and atomically hands the serving filter
// over to it. Each request loads the snapshot once, so one in flight
// answers wholly from the generation it loaded; the next request
// probes the new one. Reloads are serialized but never block the read
// path.
func (e *Engine) Reload(path string) (*FilterSnapshot, error) {
	e.m.ReqReload.Add(1)
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	f, err := LoadFilterFile(path)
	if err != nil {
		return nil, err
	}
	snap := e.fh.install(f, path)
	e.m.Reloads.Add(1)
	return snap, nil
}

// Filter returns the current serving snapshot.
func (e *Engine) Filter() *FilterSnapshot { return e.fh.load() }

// Store returns the KV backend (nil for membership-only engines).
func (e *Engine) Store() *lsm.Store { return e.store }

// Metrics returns the counter block.
func (e *Engine) Metrics() *Metrics { return &e.m }

// Close makes every later request fail fast with ErrShutdown. It waits
// for nothing: requests are synchronous, so draining the ones in flight
// is the caller's HTTP server's job (cmd/filterd runs
// http.Server.Shutdown first). The store, if any, stays open — its
// owner closes it after the engine. Close is idempotent.
func (e *Engine) Close() { e.closed.Store(true) }

// gatherAll collects every metric point: server counters, filter
// snapshot gauges, and (when a store is attached) the store's device
// and filter counters.
func (e *Engine) gatherAll() []metricPoint {
	points := e.m.gather()
	snap := e.fh.load()
	points = append(points,
		metricPoint{"filterd_filter_generation", "", "", int64(snap.Gen)},
		metricPoint{"filterd_filter_size_bits", "", "", int64(snap.SizeBits)},
	)
	if e.store != nil {
		c := e.store.Device().Counters()
		points = append(points,
			metricPoint{"filterd_store_device_reads_total", "", "", int64(c.Reads)},
			metricPoint{"filterd_store_device_writes_total", "", "", int64(c.Writes)},
			metricPoint{"filterd_store_filter_probes_total", "", "", int64(e.store.FilterProbes())},
			metricPoint{"filterd_store_filter_fallbacks_total", "", "", int64(e.store.FilterFallbacks())},
			metricPoint{"filterd_store_maplet_delete_misses_total", "", "", int64(e.store.MapletDeleteMisses())},
			metricPoint{"filterd_store_maplet_fallbacks_total", "", "", int64(e.store.MapletFallbacks())},
		)
	}
	return points
}

// MetricsText renders /metrics (Prometheus text format).
func (e *Engine) MetricsText(w io.Writer) {
	writeProm(w, e.gatherAll())
}

// DebugVars renders /debug/vars (flat JSON). Unlike /metrics it also
// includes non-deterministic runtime gauges, so the golden test pins
// /metrics only.
func (e *Engine) DebugVars(w io.Writer) {
	extra := []metricPoint{
		{"filterd_uptime_ms", "", "", time.Since(e.start).Milliseconds()},
		{"filterd_inflight_keys", "", "", e.inflightKeys.Load()},
		{"filterd_inflight_writes", "", "", e.inflightWrites.Load()},
	}
	writeVars(w, e.gatherAll(), extra)
}
