// Package concurrent provides thread-safe filter composition: a sharded
// wrapper that partitions the key space across independent sub-filters,
// each guarded by its own lock. This is the tutorial's §1 feature (6) —
// quotient filters "scale with the number of threads" — realized the way
// production systems do it (the counting quotient filter paper shards by
// high-order hash bits; per-shard locking keeps writers on different
// shards fully parallel).
package concurrent

import (
	"errors"
	"fmt"
	"sync"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// MaxLogShards bounds the shard count at 2^12: the routing hash only
// spends 16 bits, and more shards than cores×contention just wastes
// memory.
const MaxLogShards = 12

// errNilBuild reports a missing shard constructor.
var errNilBuild = errors.New("concurrent: nil build function")

// Sharded is a thread-safe filter built from 2^logShards sub-filters.
// The shard is chosen by high bits of the key's hash, so each sub-filter
// sees a uniform slice of the key space and capacity splits evenly.
type Sharded struct {
	spec    core.Spec // construction parameters (log2 shards, routing seed)
	shards  []shard
	mask    uint64
	scratch sync.Pool // *batchScratch, reused across ContainsBatch calls
}

type shard struct {
	mu sync.RWMutex
	f  core.MutableFilter
}

// NewSharded builds a sharded filter from deletable shards: build is
// called once per shard and must return an independent filter sized for
// its share of the keys. Invalid configuration (too many shards, nil or
// nil-returning build) is reported as an error, never a panic — callers
// embedding this in a serving path get to degrade instead of crashing.
func NewSharded(logShards uint, build func(shardIndex int) core.DeletableFilter) (*Sharded, error) {
	if build == nil {
		return nil, errNilBuild
	}
	return NewShardedMutable(logShards, func(i int) core.MutableFilter { return build(i) })
}

// NewShardedMutable is NewSharded for insert-only shard filters (the
// Bloom family, which has no Delete). The wrapper's own Delete then
// reports core.ErrImmutable instead of forwarding.
func NewShardedMutable(logShards uint, build func(shardIndex int) core.MutableFilter) (*Sharded, error) {
	if logShards > MaxLogShards {
		return nil, fmt.Errorf("concurrent: logShards %d exceeds max %d", logShards, MaxLogShards)
	}
	if build == nil {
		return nil, errNilBuild
	}
	n := 1 << logShards
	s := &Sharded{
		spec:   core.Spec{Type: core.TypeSharded, LogShards: uint8(logShards), Seed: 0x5A4DED},
		shards: make([]shard, n),
		mask:   uint64(n - 1),
	}
	for i := range s.shards {
		if s.shards[i].f = build(i); s.shards[i].f == nil {
			return nil, fmt.Errorf("concurrent: build returned nil filter for shard %d", i)
		}
	}
	return s, nil
}

// shardOf routes a key. The routing hash is independent of the filters'
// internal hashing (different seed), so sharding does not bias them.
func (s *Sharded) shardOf(key uint64) *shard {
	return &s.shards[hashutil.MixSeed(key, s.spec.Seed)>>48&s.mask]
}

// Spec returns the wrapper's construction parameters.
func (s *Sharded) Spec() core.Spec { return s.spec }

// Insert adds key to its shard.
func (s *Sharded) Insert(key uint64) error {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.f.Insert(key)
}

// Delete removes key from its shard. If the shards were built from
// insert-only filters (NewShardedMutable), it reports
// core.ErrImmutable.
func (s *Sharded) Delete(key uint64) error {
	sh := s.shardOf(key)
	df, ok := sh.f.(core.DeletableFilter)
	if !ok {
		return core.ErrImmutable
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return df.Delete(key)
}

// Contains probes the key's shard under a read lock, so readers scale.
func (s *Sharded) Contains(key uint64) bool {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.f.Contains(key)
}

// batchScratch holds the buffers of one sharded batch probe: the routed
// shard of every key, per-shard bucket boundaries, and the keys
// permuted into shard order. Pooled so steady-state batches allocate
// nothing.
type batchScratch struct {
	shardIdx []uint32
	bounds   []int32 // len shards+1: bucket j occupies [bounds[j], bounds[j+1])
	cursors  []int32
	keys     []uint64 // keys permuted into shard order
	origin   []int32  // original batch index of permuted slot j
	res      []bool   // sub-batch answers, permuted order
}

func (sc *batchScratch) ensure(n, shards int) {
	if cap(sc.shardIdx) < n {
		sc.shardIdx = make([]uint32, n)
		sc.keys = make([]uint64, n)
		sc.origin = make([]int32, n)
		sc.res = make([]bool, n)
	}
	if cap(sc.bounds) < shards+1 {
		sc.bounds = make([]int32, shards+1)
		sc.cursors = make([]int32, shards)
	}
}

// groupByShard routes keys, counting-sorts them into shard order inside
// sc, and returns the number of shards. After it returns, shard j's
// sub-batch is sc.keys[sc.bounds[j]:sc.bounds[j+1]], and sc.origin maps
// permuted slots back to batch positions.
func groupByShard(sc *batchScratch, keys []uint64, seed, mask uint64, shards int) {
	sc.ensure(len(keys), shards)
	shardIdx := sc.shardIdx[:len(keys)]
	for i, k := range keys {
		shardIdx[i] = uint32(hashutil.MixSeed(k, seed) >> 48 & mask)
	}
	bounds := sc.bounds[:shards+1]
	cursors := sc.cursors[:shards]
	for i := range cursors {
		cursors[i] = 0
	}
	for _, si := range shardIdx {
		cursors[si]++
	}
	sum := int32(0)
	for i, c := range cursors {
		bounds[i] = sum
		cursors[i] = sum
		sum += c
	}
	bounds[shards] = sum
	for i, k := range keys {
		si := shardIdx[i]
		j := cursors[si]
		cursors[si] = j + 1
		sc.keys[j] = k
		sc.origin[j] = int32(i)
	}
}

// ContainsBatch probes every key (see core.BatchFilter). The batch is
// counting-sorted by shard so each shard's lock is taken once for its
// whole sub-batch — one acquisition per touched shard instead of one
// per key — and each sub-batch uses the shard filter's own batched
// probe when it has one.
func (s *Sharded) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	if len(keys) == 0 {
		return
	}
	sc, _ := s.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	shards := len(s.shards)
	groupByShard(sc, keys, s.spec.Seed, s.mask, shards)
	for j := 0; j < shards; j++ {
		lo, hi := sc.bounds[j], sc.bounds[j+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[j]
		sh.mu.RLock()
		core.ContainsBatch(sh.f, sc.keys[lo:hi], sc.res[lo:hi])
		sh.mu.RUnlock()
	}
	for j := 0; j < len(keys); j++ {
		out[sc.origin[j]] = sc.res[j]
	}
	s.scratch.Put(sc)
}

// InsertBatch inserts every key (see core.BatchInserter), grouped by
// shard like ContainsBatch: each touched shard's write lock is taken
// once for its sub-batch, which goes through the shard filter's own
// batched insert when it has one. It stops at the first shard that
// fails; keys routed to later shards are then not inserted.
func (s *Sharded) InsertBatch(keys []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	sc, _ := s.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	defer s.scratch.Put(sc)
	shards := len(s.shards)
	groupByShard(sc, keys, s.spec.Seed, s.mask, shards)
	for j := 0; j < shards; j++ {
		lo, hi := sc.bounds[j], sc.bounds[j+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[j]
		sh.mu.Lock()
		err := core.InsertBatch(sh.f, sc.keys[lo:hi])
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// SizeBits sums the shards.
func (s *Sharded) SizeBits() int {
	total := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		total += s.shards[i].f.SizeBits()
		s.shards[i].mu.RUnlock()
	}
	return total
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Expansions sums the capacity doublings across growable shards (zero
// when the shards are fixed-capacity filters). Shards grow
// independently — each behind its own lock, with no cross-shard
// coordination — so the sum advances smoothly rather than in
// whole-structure steps.
func (s *Sharded) Expansions() int {
	total := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		if g, ok := s.shards[i].f.(core.GrowableFilter); ok {
			total += g.Expansions()
		}
		s.shards[i].mu.RUnlock()
	}
	return total
}

// FPRBudget returns the shards' common false-positive budget: every
// shard sees a disjoint slice of the keyspace, so the wrapper's
// compound FPR is its shards' budget, not their sum. Zero when the
// shards are not growable filters.
func (s *Sharded) FPRBudget() float64 {
	if len(s.shards) == 0 {
		return 0
	}
	if g, ok := s.shards[0].f.(core.GrowableFilter); ok {
		return g.FPRBudget()
	}
	return 0
}

var (
	_ core.DeletableFilter = (*Sharded)(nil)
	_ core.BatchFilter     = (*Sharded)(nil)
	_ core.BatchInserter   = (*Sharded)(nil)
	_ core.GrowableFilter  = (*Sharded)(nil)
)

// Counting is the sharded wrapper for counting filters.
type Counting struct {
	shards  []countingShard
	mask    uint64
	seed    uint64
	scratch sync.Pool // *batchScratch, reused across ContainsBatch calls
}

type countingShard struct {
	mu sync.RWMutex
	f  core.CountingFilter
}

// NewCounting builds a sharded counting filter. Bad configuration is
// returned as an error (see NewSharded).
func NewCounting(logShards uint, build func(shardIndex int) core.CountingFilter) (*Counting, error) {
	if logShards > MaxLogShards {
		return nil, fmt.Errorf("concurrent: logShards %d exceeds max %d", logShards, MaxLogShards)
	}
	if build == nil {
		return nil, errNilBuild
	}
	n := 1 << logShards
	c := &Counting{shards: make([]countingShard, n), mask: uint64(n - 1), seed: 0x5A4DED}
	for i := range c.shards {
		if c.shards[i].f = build(i); c.shards[i].f == nil {
			return nil, fmt.Errorf("concurrent: build returned nil filter for shard %d", i)
		}
	}
	return c, nil
}

func (c *Counting) shardOf(key uint64) *countingShard {
	return &c.shards[hashutil.MixSeed(key, c.seed)>>48&c.mask]
}

// Add inserts delta occurrences of key.
func (c *Counting) Add(key uint64, delta uint64) error {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.f.Add(key, delta)
}

// Remove deletes delta occurrences of key.
func (c *Counting) Remove(key uint64, delta uint64) error {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.f.Remove(key, delta)
}

// Count returns key's multiplicity.
func (c *Counting) Count(key uint64) uint64 {
	sh := c.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.f.Count(key)
}

// Contains reports whether key may be present.
func (c *Counting) Contains(key uint64) bool { return c.Count(key) > 0 }

// ContainsBatch probes every key (see core.BatchFilter), grouping the
// batch by shard so each shard's lock is taken once per sub-batch.
func (c *Counting) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	if len(keys) == 0 {
		return
	}
	sc, _ := c.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	shards := len(c.shards)
	groupByShard(sc, keys, c.seed, c.mask, shards)
	for j := 0; j < shards; j++ {
		lo, hi := sc.bounds[j], sc.bounds[j+1]
		if lo == hi {
			continue
		}
		sh := &c.shards[j]
		sh.mu.RLock()
		for i := lo; i < hi; i++ {
			sc.res[i] = sh.f.Count(sc.keys[i]) > 0
		}
		sh.mu.RUnlock()
	}
	for j := 0; j < len(keys); j++ {
		out[sc.origin[j]] = sc.res[j]
	}
	c.scratch.Put(sc)
}

// SizeBits sums the shards.
func (c *Counting) SizeBits() int {
	total := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		total += c.shards[i].f.SizeBits()
		c.shards[i].mu.RUnlock()
	}
	return total
}

var (
	_ core.CountingFilter = (*Counting)(nil)
	_ core.BatchFilter    = (*Counting)(nil)
)
