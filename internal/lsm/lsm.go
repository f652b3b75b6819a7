// Package lsm implements the storage-engine substrate of §3.1: a
// log-structured merge-tree with an in-memory memtable, immutable sorted
// runs on a simulated block device that counts I/Os, leveled compaction
// with a configurable size ratio, and pluggable per-run filters.
//
// The filter policies reproduce the tutorial's storyline:
//
//   - PolicyNone: every point lookup probes every overlapping run — the
//     baseline cost O(levels) I/Os per miss.
//   - PolicyBloom: a Bloom filter per run with uniform bits/key — misses
//     cost O(ε·levels).
//   - PolicyMonkey: Monkey's allocation — lower FPRs for smaller levels,
//     making the sum of FPRs converge so misses cost O(ε) I/Os.
//   - PolicyMaplet: a single global maplet maps each key to the run
//     holding it (Chucky/SlimDB style) — lookups probe ~one run.
//
// Range scans optionally use a per-run range filter (SuRF, Rosetta or
// Grafite built at flush/compaction time) to skip runs whose key range
// matches but whose contents don't (experiment E11).
//
// # Concurrency model
//
// The store is safe for concurrent use (see DESIGN.md §8). Readers
// (Get, GetBatch, Scan, Len, ...) probe an immutable snapshot — the
// frozen memtables plus the full level/run tree — loaded from an
// atomic.Pointer, so they never contend with each other and only take a
// short read-lock to consult the active memtable. Writers append to the
// mutex-guarded active memtable; a full memtable is frozen and handed
// to the flush engine. With Options.Background set, a dedicated
// goroutine runs flushes and compactions and writers stall only when
// the L0 backlog exceeds Options.L0RunBudget; otherwise flushing runs
// inline, which keeps the I/O accounting deterministic for experiment
// replay.
package lsm

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/wal"
)

// Entry is a key-value record. Tombstones mark deletions until
// compaction discards them.
type Entry struct {
	Key       uint64
	Value     uint64
	Tombstone bool
}

// Device simulates block storage: it stores nothing (runs keep their
// entries in memory) but counts the I/Os a real device would serve. An
// optional fault injector makes those I/Os fallible: reads and writes
// then fail or report detected corruption per the injector's schedule,
// and the Store degrades (retries, then recovers from a replica) instead
// of panicking. Every attempt is charged to Reads/Writes, so a faulty
// run costs strictly more I/O than a healthy one — never a wrong answer.
//
// Counters are atomics: they may be read from any goroutine while
// operations are in flight. Each counter is individually exact and
// monotonic; Counters returns a read-side snapshot (see DESIGN.md §8
// for what "snapshot-consistent" means under concurrency).
type Device struct {
	reads        atomic.Int64
	writes       atomic.Int64
	failedReads  atomic.Int64
	failedWrites atomic.Int64
	replicaReads atomic.Int64
	replicaWrite atomic.Int64
	// Faults, when non-nil, judges every I/O. Transient/permanent
	// outcomes fail the call; bit-flips surface as detected corruption
	// (checksum mismatch). The injector itself is safe for concurrent
	// use; installing a new one must happen before concurrent operations
	// start.
	Faults *fault.Injector
}

// Reads returns the read I/Os charged so far (attempts included).
func (d *Device) Reads() int { return int(d.reads.Load()) }

// Writes returns the write I/Os charged so far (attempts included).
func (d *Device) Writes() int { return int(d.writes.Load()) }

// FailedReads counts individual read attempts that faulted.
func (d *Device) FailedReads() int { return int(d.failedReads.Load()) }

// FailedWrites counts individual write attempts that faulted.
func (d *Device) FailedWrites() int { return int(d.failedWrites.Load()) }

// ReplicaReads counts reads that exhausted their retries and fell back
// to the (always-intact) replica.
func (d *Device) ReplicaReads() int { return int(d.replicaReads.Load()) }

// ReplicaWrites is ReplicaReads' write-side twin.
func (d *Device) ReplicaWrites() int { return int(d.replicaWrite.Load()) }

// DeviceCounters is a point-in-time copy of every Device counter.
type DeviceCounters struct {
	Reads, Writes             int
	FailedReads, FailedWrites int
	ReplicaReads              int
	ReplicaWrites             int
}

// Counters returns a snapshot of all counters. Each value is exact and
// monotonic; under concurrent load the fields are read one after
// another, so the snapshot is consistent only in the sense that every
// field is some value the counter actually held.
func (d *Device) Counters() DeviceCounters {
	return DeviceCounters{
		Reads:         d.Reads(),
		Writes:        d.Writes(),
		FailedReads:   d.FailedReads(),
		FailedWrites:  d.FailedWrites(),
		ReplicaReads:  d.ReplicaReads(),
		ReplicaWrites: d.ReplicaWrites(),
	}
}

// read charges blocks of read I/O and returns the injected outcome.
func (d *Device) read(blocks int) error {
	d.reads.Add(int64(blocks))
	return d.outcome(&d.failedReads)
}

// write charges blocks of write I/O and returns the injected outcome.
func (d *Device) write(blocks int) error {
	d.writes.Add(int64(blocks))
	return d.outcome(&d.failedWrites)
}

func (d *Device) outcome(failed *atomic.Int64) error {
	if d.Faults == nil {
		return nil
	}
	o := d.Faults.Next()
	if o.Err != nil {
		failed.Add(1)
		return o.Err
	}
	if o.FlipBit >= 0 {
		failed.Add(1)
		return fault.ErrCorrupt
	}
	return nil
}

// entriesPerBlock sets the simulated block granularity for write I/O
// accounting.
const entriesPerBlock = 128

// FilterPolicy selects the filtering strategy.
type FilterPolicy int

const (
	// PolicyNone disables filters.
	PolicyNone FilterPolicy = iota
	// PolicyBloom gives every run a Bloom filter with uniform bits/key.
	PolicyBloom
	// PolicyMonkey allocates exponentially lower false-positive rates to
	// smaller levels (Monkey).
	PolicyMonkey
	// PolicyMaplet replaces per-run filters with one global maplet
	// mapping keys to runs (Chucky/SlimDB).
	PolicyMaplet
)

// RangeFilterBuilder constructs a range filter over a run's keys; nil
// disables range filtering.
type RangeFilterBuilder func(keys []uint64) core.RangeFilter

// Durability selects the write-ahead-logging contract of a store
// opened with OpenStore (see DESIGN.md §9). Snapshot-only stores
// (DurabilityNone, the default) persist nothing between explicit Save
// calls; every other mode logs mutations to a WAL in the store's
// directory before they enter the memtable and replays the log on
// reopen, so no acknowledged write is lost to a crash.
type Durability int

const (
	// DurabilityNone disables the WAL: the legacy snapshot-only store.
	DurabilityNone Durability = iota
	// DurabilityGroup logs every write and batches fsyncs across
	// concurrent writers (group commit): full durability with flat
	// latency tails. The recommended durable mode.
	DurabilityGroup
	// DurabilityAlways fsyncs every write individually before
	// acknowledging it: the naive baseline the E19 ablation measures
	// group commit against.
	DurabilityAlways
	// DurabilityBuffered logs without fsync: a crash may lose the
	// buffered tail, but what survives is always a clean prefix of the
	// write history.
	DurabilityBuffered
)

// CompactionPolicy selects the merge strategy (§3.1's design space).
type CompactionPolicy int

const (
	// Leveling keeps one run per level: each flush merges greedily, so
	// reads probe one run per level but writes are rewritten up to T
	// times per level (write amplification O(T·levels)).
	Leveling CompactionPolicy = iota
	// Tiering lets each level accumulate T runs before merging them into
	// one run a level down: write amplification drops to O(levels), at
	// the cost of up to T runs probed per level on reads. This is the
	// trade Dostoevsky and LSM-Bush push further.
	Tiering
	// LazyLeveling (Dostoevsky) tiers every level except the largest,
	// which stays leveled: most of tiering's write savings with
	// leveling's read cost where it matters (the largest level holds
	// most data and most queries bottom out there).
	LazyLeveling
)

// Options configure a Store.
type Options struct {
	// MemtableSize is the flush trigger: entries buffered in the active
	// memtable before it is frozen and flushed (default 1024).
	MemtableSize int
	SizeRatio    int          // level capacity ratio T (default 4)
	Policy       FilterPolicy // zero value is PolicyNone: no filters
	BitsPerKey   float64      // Bloom budget per key (default 10)
	// MonkeyBaseFPR is the false-positive rate of the largest level under
	// PolicyMonkey (smaller levels get geometrically lower rates).
	MonkeyBaseFPR float64
	// RangeFilter, when set, is built per run and consulted by Scan.
	RangeFilter RangeFilterBuilder
	// Compaction selects the merge strategy (default Leveling).
	Compaction CompactionPolicy
	// Background enables the background flush/compaction engine: Put and
	// Delete hand full memtables to a dedicated goroutine instead of
	// flushing inline, and writers stall only when the L0 backlog
	// exceeds L0RunBudget. Leave it false (the default) for
	// deterministic experiment replay: the synchronous engine performs
	// the exact same I/O in the exact same order on every run. Stores
	// with Background set should be Closed when done.
	Background bool
	// L0RunBudget is the write-stall threshold for Background mode: a
	// Put stalls while flush work is pending and the number of frozen
	// memtables plus level-0 runs exceeds this budget (default 8; zero
	// selects the default, negative is rejected by NewStore). It is
	// ignored in synchronous mode, where the backlog never exceeds one.
	// A durable PolicyMaplet store checkpoints before it holds more
	// retired runs, so NewStore caps it by the run-id width.
	L0RunBudget int
	// DeviceFaults, when set, is installed on the store's Device so data
	// block I/O fails per its schedule.
	DeviceFaults *fault.Injector
	// FilterFaults, when set, judges every filter-block probe (filters
	// live on storage too). A faulted probe makes the filter unusable for
	// that lookup: the store falls back to probing the run directly,
	// trading extra I/O for correctness.
	FilterFaults *fault.Injector
	// Durability selects the write-ahead-logging contract. Any value
	// other than DurabilityNone requires a directory, so it is accepted
	// only by OpenStore (NewStore rejects it).
	Durability Durability
	// FS is the filesystem persistence writes through (nil selects the
	// real OS disk). Crash tests substitute a fault.CrashFS.
	FS fault.FS
	// WALSegmentBytes caps one WAL segment file before rotation
	// (default 1 MiB). Ignored under DurabilityNone.
	WALSegmentBytes int
}

const defaultL0RunBudget = 8 // what a zero L0RunBudget selects

func (o *Options) fill() {
	if o.MemtableSize == 0 {
		o.MemtableSize = 1024
	}
	if o.SizeRatio == 0 {
		o.SizeRatio = 4
	}
	if o.BitsPerKey == 0 {
		o.BitsPerKey = 10
	}
	if o.MonkeyBaseFPR == 0 {
		o.MonkeyBaseFPR = 0.01
	}
	if o.L0RunBudget == 0 {
		o.L0RunBudget = defaultL0RunBudget
	}
}

// validate rejects option values the level arithmetic or the flush
// engine cannot operate under. Zero values mean "use the default" and
// are filled before validation.
func (o *Options) validate() error {
	if o.MemtableSize < 0 {
		return fmt.Errorf("lsm: MemtableSize %d must be positive", o.MemtableSize)
	}
	if o.SizeRatio < 0 || o.SizeRatio == 1 {
		return fmt.Errorf("lsm: SizeRatio %d must be at least 2", o.SizeRatio)
	}
	if !(o.BitsPerKey > 0 && o.BitsPerKey <= 1024) {
		return fmt.Errorf("lsm: BitsPerKey %v must be in (0, 1024]", o.BitsPerKey)
	}
	if !(o.MonkeyBaseFPR > 0 && o.MonkeyBaseFPR < 1) {
		return fmt.Errorf("lsm: MonkeyBaseFPR %v must be in (0, 1)", o.MonkeyBaseFPR)
	}
	if o.Policy < PolicyNone || o.Policy > PolicyMaplet {
		return fmt.Errorf("lsm: unknown FilterPolicy %d", o.Policy)
	}
	if o.Compaction < Leveling || o.Compaction > LazyLeveling {
		return fmt.Errorf("lsm: unknown CompactionPolicy %d", o.Compaction)
	}
	if o.L0RunBudget < 0 {
		return fmt.Errorf("lsm: L0RunBudget %d must be positive (zero selects the default)", o.L0RunBudget)
	}
	if o.Durability < DurabilityNone || o.Durability > DurabilityBuffered {
		return fmt.Errorf("lsm: unknown Durability %d", o.Durability)
	}
	if o.WALSegmentBytes < 0 {
		return fmt.Errorf("lsm: WALSegmentBytes %d must be positive (zero selects the default)", o.WALSegmentBytes)
	}
	return nil
}

// walMode maps a Durability to the log's commit mode.
func walMode(d Durability) wal.Mode {
	switch d {
	case DurabilityAlways:
		return wal.ModeAlways
	case DurabilityBuffered:
		return wal.ModeBuffered
	default:
		return wal.ModeGroup
	}
}

// run is an immutable sorted run.
type run struct {
	id      uint64
	entries []Entry // sorted by key, unique keys
	filter  core.Filter
	rangeF  core.RangeFilter
	level   int
	// The run's radix start table (see index): every point read
	// searches only the span it gives.
	start []uint32
	lo    uint64
	shift uint8
}

func (r *run) minKey() uint64 { return r.entries[0].Key }
func (r *run) maxKey() uint64 { return r.entries[len(r.entries)-1].Key }

// search binary-searches a sorted span of entries for key.
func search(seg []Entry, key uint64) (Entry, bool) {
	i := sort.Search(len(seg), func(i int) bool { return seg[i].Key >= key })
	if i < len(seg) && seg[i].Key == key {
		return seg[i], true
	}
	return Entry{}, false
}

// index builds the run's radix start table: 2^b buckets, b =
// ⌈log2(len/entriesPerBlock)⌉, key's bucket (key−lo)>>shift with the
// largest key in the last one, and start[i] the first entry in bucket i
// or beyond. Even keys put about a block in a bucket; skew only widens
// some spans. It costs 0.25–0.5 bits per entry.
func (r *run) index() {
	n := len(r.entries)
	b := bits.Len(uint((n - 1) / entriesPerBlock))
	r.start = make([]uint32, 1<<b+1)
	if n == 0 {
		return
	}
	r.lo = r.entries[0].Key
	r.shift = uint8(max(bits.Len64(r.maxKey()-r.lo)-b, 0))
	j := 0
	for i := 1; i < 1<<b; i++ {
		for j < n && (r.entries[j].Key-r.lo)>>r.shift < uint64(i) {
			j++
		}
		r.start[i] = uint32(j)
	}
	r.start[1<<b] = uint32(n)
}

// span returns the entries of the run among which key lies if the run
// holds it.
func (r *run) span(key uint64) []Entry {
	base, n := r.bounds(key)
	return r.entries[base : base+n]
}

// bounds returns span(key) as indices: it is entries[base:base+n].
func (r *run) bounds(key uint64) (base, n uint32) {
	i := (key - r.lo) >> r.shift
	if i >= uint64(len(r.start)-1) {
		return 0, 0
	}
	return r.start[i], r.start[i+1] - r.start[i]
}

// memRun is a frozen memtable: immutable once published in a view,
// awaiting its flush into a level-0 run.
type memRun struct {
	entries map[uint64]Entry
}

// view is the immutable read snapshot: the frozen memtables (newest
// first) plus the complete level/run tree. Readers load it from an
// atomic pointer and probe it without locks; every structural change
// (freeze, flush, compaction, reopen) publishes a fresh view under the
// store mutex.
type view struct {
	frozen []*memRun
	levels [][]*run // levels[i] holds the runs of level i, newest first
}

// Store is the LSM-tree. It is safe for concurrent use; see the
// package comment and DESIGN.md §8 for the concurrency model.
type Store struct {
	opts Options
	dev  *Device

	// mu guards the active memtable and serializes view publication;
	// readers take it only in read mode and only to consult the active
	// memtable. cond (on mu) wakes write-stalled Puts and synchronous
	// Flushes when the engine publishes progress.
	mu   sync.RWMutex
	cond *sync.Cond
	mem  map[uint64]Entry
	view atomic.Pointer[view]

	// Engine state: the mutable level tree. It is owned by whichever
	// goroutine is flushing — the background worker in Background mode,
	// or a caller holding mu's write lock in synchronous mode — and is
	// never read by queries (they use the published view).
	tree    [][]*run
	runByID map[uint64]*run
	// cycleMu spans each Background flush-compact-publish cycle, and pin
	// takes it before mu, so no snapshot falls inside a cycle: its
	// maplet image names only runs of its view, and every retired run
	// is out of that view. The synchronous engine runs under mu instead.
	cycleMu sync.Mutex

	// Durable-mode state (zero for snapshot-only stores). lastLSN is
	// guarded by mu and advances with every logged batch; flushedLSN and
	// persisted are guarded by ckptMu, which serializes checkpoints.
	// persisted maps a run id with files in the store directory to
	// whether a filter file accompanies the data file. bgErr (guarded by
	// mu) is the sticky failure of a background checkpoint, surfaced on
	// the next Apply.
	wal        *wal.Log
	dir        string
	fs         fault.FS
	lastLSN    uint64
	bgErr      error
	closeErr   error
	ckptMu     sync.Mutex
	flushedLSN uint64
	persisted  map[uint64]bool

	// Run ids are recycled from a small pool so they stay below idLimit:
	// 2^w for the maplet's w-bit values (mapletval.go), else 2^16.
	// retired holds the runs retirement took out of the tree whose ids
	// have not come back yet (retireRun, release). idMu guards the pool
	// and the list, so pin reads both at the instant of its view.
	idMu    sync.Mutex
	freeIDs []uint64
	nextID  uint64
	retired []*run
	idLimit uint64
	// maxDepth caps the level count: mapletDepth for maplet stores.
	maxDepth int

	maplet *mapletIndex

	filterProbes    atomic.Int64
	filterFallbacks atomic.Int64
	// mapletDeleteMisses counts best-effort maplet deletions that found
	// no matching entry (index-drift diagnostic); mapletFallbacks counts
	// maplet lookups that lost the race with a compaction remap and
	// degraded to probing every overlapping run.
	mapletDeleteMisses atomic.Int64
	mapletFallbacks    atomic.Int64

	// Background engine plumbing.
	bg        bool // cleared by Close; guarded by mu
	flushCh   chan struct{}
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewStore returns an empty store, or an error when the options are
// invalid (negative sizes, a size ratio of one, an L0 run budget that
// could never admit a write, an unknown policy, a maplet store whose
// live runs would outgrow its run-id width...). Durable stores
// need a directory for their log, so Options.Durability is accepted
// only by OpenStore.
func NewStore(opts Options) (*Store, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Durability != DurabilityNone {
		return nil, fmt.Errorf("lsm: Options.Durability requires a directory; open durable stores with OpenStore")
	}
	s := &Store{
		opts:     opts,
		mem:      make(map[uint64]Entry),
		dev:      &Device{Faults: opts.DeviceFaults},
		runByID:  make(map[uint64]*run),
		idLimit:  1 << 16,
		maxDepth: math.MaxInt,
	}
	s.cond = sync.NewCond(&s.mu)
	if opts.Policy == PolicyMaplet {
		// The maplet is the primary index: a remainder and a recycled
		// run id per slot (see mapletval.go), sized small here and
		// expanded on demand.
		w, err := mapletRunBits(&opts)
		if err != nil {
			return nil, err
		}
		s.idLimit, s.maxDepth = 1<<w, mapletDepth(&opts)
		s.maplet = newMapletIndex(quotient.NewMaplet(mapletQ0, mapletR0, w))
	}
	s.view.Store(&view{})
	if opts.Background {
		s.startBackground()
	}
	return s, nil
}

// New returns an empty store, panicking on invalid options. Use
// NewStore to handle configuration errors gracefully.
func New(opts Options) *Store {
	s, err := NewStore(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// startBackground launches the flush/compaction worker.
func (s *Store) startBackground() {
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.flushCh = make(chan struct{}, 1)
	s.bg = true
	s.wg.Add(1)
	go s.flusher()
}

// Close stops the background engine, draining any pending flush work
// first, and — on a durable store — writes a final checkpoint and
// closes the write-ahead log. It is idempotent. A snapshot-only store
// remains usable in synchronous mode after Close (subsequent Puts
// flush inline); a durable store must not be written after Close.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		running := s.bg
		s.mu.Unlock()
		if running {
			s.cancel()
			s.signalFlush() // wake the worker if it is idle
			s.wg.Wait()
			s.mu.Lock()
			s.bg = false
			// The worker drained everything before exiting, but wake any
			// stalled writer or waiting Flush so it re-checks under the new
			// (synchronous) regime.
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		if s.wal != nil {
			if err := s.Checkpoint(); err != nil {
				s.closeErr = err
			}
			if err := s.wal.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Device exposes the I/O counters.
func (s *Store) Device() *Device { return s.dev }

// FilterProbes counts filter consultations (CPU-cost diagnostic).
func (s *Store) FilterProbes() int { return int(s.filterProbes.Load()) }

// FilterFallbacks counts lookups where a faulted filter probe forced
// the store to probe runs directly (degraded mode).
func (s *Store) FilterFallbacks() int { return int(s.filterFallbacks.Load()) }

// MapletDeleteMisses counts best-effort maplet deletions (compaction
// remaps, retired-run strips) that found no matching entry. Lookups
// stay correct regardless — the maplet only routes — but a nonzero
// value means the index drifted from the maintenance protocol's
// expectations and is worth alarming on.
func (s *Store) MapletDeleteMisses() int { return int(s.mapletDeleteMisses.Load()) }

// MapletFallbacks counts maplet lookups that could not be resolved
// against a stable view (a compaction remap was mid-flight for all
// four attempts) and fell back to probing every overlapping run.
func (s *Store) MapletFallbacks() int { return int(s.mapletFallbacks.Load()) }

// devAttempts bounds the attempts one faulted device I/O makes before
// it recovers from the replica.
const devAttempts = 4

// devRead performs a fallible read of blocks: faulted attempts are
// retried (each attempt pays its I/O), and exhausted retries recover
// from the replica at a further blocks of cost. It never fails — the
// degraded path trades I/O for correctness. Without an injector no
// attempt can fail, so the read is one counter add and skips the
// retry loop, whose only job is retrying injected errors.
func (s *Store) devRead(blocks int) {
	if s.dev.Faults == nil {
		s.dev.reads.Add(int64(blocks))
		return
	}
	if err := fault.Retry(context.Background(), devAttempts, func() error {
		return s.dev.read(blocks)
	}); err != nil {
		s.dev.reads.Add(int64(blocks))
		s.dev.replicaReads.Add(1)
	}
}

// devReads charges n single-block reads a batch has performed: one
// counter add on a fault-free device, and with an injector armed n
// reads each judged (and retried) through devRead.
func (s *Store) devReads(n int) {
	if n == 0 {
		return
	}
	if s.dev.Faults == nil {
		s.dev.reads.Add(int64(n))
		return
	}
	for ; n > 0; n-- {
		s.devRead(1)
	}
}

// devWrite is devRead's write-side twin.
func (s *Store) devWrite(blocks int) {
	if s.dev.Faults == nil {
		s.dev.writes.Add(int64(blocks))
		return
	}
	if err := fault.Retry(context.Background(), devAttempts, func() error {
		return s.dev.write(blocks)
	}); err != nil {
		s.dev.writes.Add(int64(blocks))
		s.dev.replicaWrite.Add(1)
	}
}

// filterFaulted judges one filter-block probe (run filter, range filter
// or maplet) against Options.FilterFaults and counts a faulted one as a
// fallback: it rules nothing out, so the caller pays the data I/O.
func (s *Store) filterFaulted() bool {
	if ff := s.opts.FilterFaults; ff != nil {
		if o := ff.Next(); o.Err != nil || o.FlipBit >= 0 {
			s.filterFallbacks.Add(1)
			return true
		}
	}
	return false
}

// Put inserts or updates a key. An Apply error is fatal (panic): on a
// durable store a logging failure, since acknowledging an unlogged
// write would break the durability promise, and on a maplet store a
// full index. Use Apply to handle the error instead.
func (s *Store) Put(key, value uint64) {
	if err := s.Apply(Entry{Key: key, Value: value}); err != nil {
		panic(fmt.Sprintf("lsm: put: %v", err))
	}
}

// Delete removes a key (via tombstone). See Put for the durable-mode
// failure contract.
func (s *Store) Delete(key uint64) {
	if err := s.Apply(Entry{Key: key, Tombstone: true}); err != nil {
		panic(fmt.Sprintf("lsm: delete: %v", err))
	}
}

// Apply applies a batch of mutations: stall if the flush backlog is
// over budget, log the batch (durable stores), insert into the active
// memtable, and freeze it at the flush trigger. The batch receives
// consecutive log sequence numbers and enters the memtable atomically
// with their assignment, so replay order equals apply order. On a
// durable store Apply returns only once the batch is acknowledged
// under the configured Durability mode — after the group-commit fsync
// in DurabilityGroup/Always, after the OS write in DurabilityBuffered.
// A maplet store refuses, with core.ErrFull and before logging, a batch
// its index might not have room for (mapletRoomLocked). Otherwise a
// snapshot-only store never fails.
func (s *Store) Apply(entries ...Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.mu.Lock()
	for s.bg && s.bgErr == nil && s.stalledLocked() {
		s.cond.Wait()
	}
	if s.bgErr != nil {
		err := s.bgErr
		s.mu.Unlock()
		return err
	}
	if err := s.mapletRoomLocked(len(entries)); err != nil {
		s.mu.Unlock()
		return err
	}
	var target uint64
	if s.wal != nil {
		ops := make([]wal.Op, len(entries))
		for i, e := range entries {
			ops[i] = wal.Op{Key: e.Key, Value: e.Value, Tombstone: e.Tombstone}
		}
		lsn, err := s.wal.Enqueue(ops)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.lastLSN = lsn
		target = lsn
	}
	for _, e := range entries {
		s.mem[e.Key] = e
	}
	if len(s.mem) < s.opts.MemtableSize {
		s.mu.Unlock()
		if s.wal != nil {
			return s.wal.Sync(target)
		}
		return nil
	}
	s.freezeLocked()
	if s.bg {
		s.mu.Unlock()
		if s.wal != nil {
			if err := s.wal.Sync(target); err != nil {
				return err
			}
		}
		s.signalFlush()
		return nil
	}
	s.drainLocked()
	s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	// Synchronous durable flush: acknowledge the batch, then fold the
	// flushed tree into a durable checkpoint so the covered log
	// segments can retire. A failed checkpoint parks the store, as in
	// the Background engine.
	if err := s.wal.Sync(target); err != nil {
		return err
	}
	if err := s.Checkpoint(); err != nil {
		s.setBgErr(err)
		return err
	}
	return nil
}

// mapletRoomLocked refuses a batch of n writes with core.ErrFull,
// before anything is logged, when a maplet store's index could
// overflow. Only fresh keys grow the maplet, each by at most one entry
// when its memtable is flushed, so the maplet's entries plus every
// unflushed key plus the batch must fit the capacity of its last
// doubling; past that a flush could not index a key. Callers hold mu.
func (s *Store) mapletRoomLocked(n int) error {
	if s.maplet == nil {
		return nil
	}
	unflushed := len(s.mem) + n
	for _, fm := range s.view.Load().frozen {
		unflushed += len(fm.entries)
	}
	s.maplet.mu.RLock()
	entries, limit := s.maplet.m.Len(), mapletCapacity(s.maplet.m.FinalSlots())
	s.maplet.mu.RUnlock()
	if uint64(entries+unflushed) > limit {
		return fmt.Errorf("lsm: maplet holds %d entries and %d unflushed keys, %d more would pass its capacity %d: %w",
			entries, unflushed-n, n, limit, core.ErrFull)
	}
	return nil
}

// stalledLocked reports whether a writer must wait for the engine:
// flush work is pending and the backlog (frozen memtables plus level-0
// runs) exceeds the configured budget.
func (s *Store) stalledLocked() bool {
	v := s.view.Load()
	if len(v.frozen) == 0 {
		return false
	}
	l0 := 0
	if len(v.levels) > 0 {
		l0 = len(v.levels[0])
	}
	return len(v.frozen)+l0 > s.opts.L0RunBudget
}

// freezeLocked publishes the active memtable as a frozen memtable
// (newest first) and replaces it with an empty one, presized to the one
// it froze (at most MemtableSize) so the next fill does not regrow the
// map. Callers hold mu.
func (s *Store) freezeLocked() {
	if len(s.mem) == 0 {
		return
	}
	fm := &memRun{entries: s.mem}
	s.mem = make(map[uint64]Entry, min(len(fm.entries), s.opts.MemtableSize))
	v := s.view.Load()
	frozen := make([]*memRun, 0, len(v.frozen)+1)
	frozen = append(frozen, fm)
	frozen = append(frozen, v.frozen...)
	s.view.Store(&view{frozen: frozen, levels: v.levels})
}

// signalFlush nudges the background worker (non-blocking: the worker
// re-scans the frozen backlog on every wakeup, so one pending signal
// covers any number of freezes).
func (s *Store) signalFlush() {
	select {
	case s.flushCh <- struct{}{}:
	default:
	}
}

// Flush forces the memtable down to level 0 and waits until every
// frozen memtable has been flushed and compacted. In synchronous mode
// this happens inline; in Background mode it blocks until the worker
// drains the backlog. On a durable store Flush also writes a
// checkpoint; a checkpoint failure is surfaced on the next Apply.
func (s *Store) Flush() {
	s.mu.Lock()
	s.freezeLocked()
	if !s.bg {
		s.drainLocked()
		s.mu.Unlock()
		if s.wal != nil {
			if err := s.Checkpoint(); err != nil {
				s.setBgErr(err)
			}
		}
		return
	}
	s.mu.Unlock()
	s.signalFlush()
	s.mu.Lock()
	for s.bg && s.bgErr == nil && len(s.view.Load().frozen) > 0 {
		s.cond.Wait()
	}
	if !s.bg {
		// The engine shut down under us (concurrent Close): finish the
		// backlog inline.
		s.drainLocked()
	}
	s.mu.Unlock()
}

// setBgErr records a sticky engine failure and wakes stalled writers
// so they observe it.
func (s *Store) setBgErr(err error) {
	s.mu.Lock()
	if s.bgErr == nil {
		s.bgErr = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// flusher is the background engine: woken by signalFlush (or shutdown),
// it drains the frozen-memtable backlog, cascading compactions and
// publishing a fresh view after each flush.
func (s *Store) flusher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			s.drainBackground()
			return
		case <-s.flushCh:
			s.drainBackground()
		}
	}
}

// drainBackground flushes every pending frozen memtable, oldest first.
// Engine work (merging, filter builds, device I/O) runs without mu;
// only the view publication takes the write lock. On a durable store
// the drained backlog is folded into one checkpoint at the end, and a
// checkpoint failure parks the store in a sticky error state. A durable
// maplet store also checkpoints, recycling run ids, before a flush
// whenever more than L0RunBudget retired runs hold theirs (mapletval.go).
// A snapshot-only store takes its retired ids back after each publish:
// no reader can load a view holding their runs from then on.
func (s *Store) drainBackground() {
	flushed := false
	for {
		v := s.view.Load()
		if len(v.frozen) == 0 {
			break
		}
		s.idMu.Lock()
		held := len(s.retired)
		s.idMu.Unlock()
		if s.maplet != nil && s.wal != nil && held > s.opts.L0RunBudget {
			if err := s.Checkpoint(); err != nil {
				s.setBgErr(err)
				return
			}
			flushed = false
		}
		fm := v.frozen[len(v.frozen)-1] // oldest
		s.cycleMu.Lock()
		s.flushMem(fm)
		s.compact()
		s.mu.Lock()
		s.publishLocked(fm)
		s.mu.Unlock()
		s.cycleMu.Unlock()
		flushed = true
		if s.wal == nil {
			s.release(math.MaxInt, nil)
		}
	}
	if flushed && s.wal != nil {
		if err := s.Checkpoint(); err != nil {
			s.setBgErr(err)
		}
	}
}

// drainLocked is the synchronous twin: callers hold mu's write lock for
// the whole flush+compact+publish sequence, so the I/O order is exactly
// the single-threaded engine's.
func (s *Store) drainLocked() {
	for {
		v := s.view.Load()
		if len(v.frozen) == 0 {
			return
		}
		fm := v.frozen[len(v.frozen)-1]
		s.flushMem(fm)
		s.compact()
		s.publishLocked(fm)
	}
}

// publishLocked installs a fresh view: the current frozen backlog minus
// the consumed memtable, plus a snapshot of the engine's tree. Callers
// hold mu's write lock.
func (s *Store) publishLocked(consumed *memRun) {
	v := s.view.Load()
	frozen := v.frozen
	if consumed != nil {
		kept := make([]*memRun, 0, len(frozen))
		for _, fm := range frozen {
			if fm != consumed {
				kept = append(kept, fm)
			}
		}
		frozen = kept
	}
	levels := make([][]*run, len(s.tree))
	for i, level := range s.tree {
		levels[i] = append([]*run(nil), level...)
	}
	s.view.Store(&view{frozen: frozen, levels: levels})
	s.cond.Broadcast()
}
