package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

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
)

// Config sizes the service core. The zero value selects the defaults.
type Config struct {
	// MaxBatch is the coalescing window capacity (default 256 — one
	// core.BatchChunk, so a full window is exactly one hash-once/
	// probe-many pass).
	MaxBatch int
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
	if c.MaxBatch == 0 {
		c.MaxBatch = core.BatchChunk
	}
	if c.MaxInflightKeys == 0 {
		c.MaxInflightKeys = 65536
	}
	if c.MaxInflightWrites == 0 {
		c.MaxInflightWrites = 1024
	}
}

// Engine is the service core: the membership filter behind an atomic
// reload handle, an optional LSM KV store, one coalescer per read op,
// and admission control in front of both. The HTTP layer (server.go)
// and the load generator drive the same Engine methods, so what the
// experiment measures is what the server serves.
type Engine struct {
	cfg   Config
	m     Metrics
	fh    filterHandle
	store *lsm.Store

	membership *Coalescer
	kv         *Coalescer

	inflightKeys   atomic.Int64
	inflightWrites atomic.Int64
	closed         atomic.Bool
	reloadMu       sync.Mutex
	start          time.Time
}

// NewEngine builds the service core over a serving filter (required)
// and an optional KV store (nil disables the KV endpoints). The store
// is borrowed, not owned: Close shuts the coalescers down but leaves
// the store to its creator.
func NewEngine(filter core.Filter, store *lsm.Store, cfg Config) (*Engine, error) {
	if filter == nil {
		return nil, fmt.Errorf("server: nil serving filter")
	}
	cfg.fill()
	e := &Engine{cfg: cfg, store: store, start: time.Now()}
	e.fh.install(filter, "")
	e.membership = NewCoalescer(cfg.MaxBatch, e.flushMembership)
	if store != nil {
		e.kv = NewCoalescer(cfg.MaxBatch, e.flushKV)
	}
	return e, nil
}

// flushMembership answers one membership window against a single
// filter snapshot — a reload mid-window cannot split the batch.
func (e *Engine) flushMembership(keys []uint64, _ []uint64, found []bool) error {
	core.ContainsBatch(e.fh.load().Filter, keys, found)
	return nil
}

// flushKV answers one KV window via the store's batched read path.
func (e *Engine) flushKV(keys []uint64, values []uint64, found []bool) error {
	e.store.GetBatch(keys, values, found)
	return nil
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

// Contains reports membership of key, coalesced into the current
// window.
func (e *Engine) Contains(ctx context.Context, key uint64) (bool, error) {
	e.m.ReqContains.Add(1)
	if !e.admitKeys(1) {
		return false, ErrOverloaded
	}
	defer e.releaseKeys(1)
	_, found, err := e.membership.Do(ctx, key)
	return found, err
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

// Get performs one coalesced LSM point lookup.
func (e *Engine) Get(ctx context.Context, key uint64) (uint64, bool, error) {
	e.m.ReqGet.Add(1)
	if e.store == nil {
		return 0, false, ErrNoStore
	}
	if !e.admitKeys(1) {
		return 0, false, ErrOverloaded
	}
	defer e.releaseKeys(1)
	return e.kv.Do(ctx, key)
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
	e.m.ReqInsert.Add(1)
	if e.closed.Load() {
		return ErrShutdown
	}
	sh := e.fh.load().Mutable()
	if sh == nil {
		return ErrReadOnly
	}
	return sh.Insert(key)
}

// Reload loads a .bbf file and atomically hands the serving filter
// over to it. In-flight windows finish against the snapshot they
// started with; the next window probes the new generation. Reloads
// are serialized but never block the read path.
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

// MembershipStats returns the membership coalescer's counters.
func (e *Engine) MembershipStats() CoalescerStats { return e.membership.Stats() }

// Close drains the coalescers: all later requests fail fast with
// ErrShutdown, and every window already open is flushed by its owner,
// so every in-flight waiter gets a real answer. The store, if any,
// stays open — its owner closes it after the engine so final flushes
// still have a backend.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.membership.Close()
	if e.kv != nil {
		e.kv.Close()
	}
}

// gatherAll collects every metric point: server counters, per-role
// coalescer counters, filter snapshot gauges, and (when a store is
// attached) the store's device and filter counters.
func (e *Engine) gatherAll() []metricPoint {
	points := e.m.gather()
	points = append(points, gatherCoalescer("membership", e.membership.Stats())...)
	if e.kv != nil {
		points = append(points, gatherCoalescer("kv", e.kv.Stats())...)
	}
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
