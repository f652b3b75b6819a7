package lsm

import (
	"math/bits"
	"sort"
	"sync"

	"beyondbloom/internal/core"
)

// This file is the read side: every query loads the current view (an
// immutable snapshot of the frozen memtables and the level tree) and
// probes it without locks. The only lock a reader ever takes is a short
// read-lock on mu to consult the active memtable.
//
// Ordering matters: readers check the active memtable FIRST and load
// the view after. A key missing from the active memtable at check time
// is either never-written or already frozen — and any view loaded
// after the check includes that frozen memtable (or the run it flushed
// into), so no committed key can fall through the gap.

// Get returns the value for key. The boolean reports presence.
func (s *Store) Get(key uint64) (uint64, bool) {
	s.mu.RLock()
	e, ok := s.mem[key]
	s.mu.RUnlock()
	if ok {
		return e.Value, !e.Tombstone
	}
	v := s.view.Load()
	if e, ok := frozenLookup(v.frozen, key); ok {
		return e.Value, !e.Tombstone
	}
	if s.opts.Policy == PolicyMaplet {
		return s.mapletGet(key)
	}
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			if len(r.entries) == 0 || key < r.minKey() || key > r.maxKey() {
				continue
			}
			if r.filter != nil {
				// A faulted filter probe cannot rule the run out, so the
				// lookup degrades to paying the data I/O.
				if ok, usable := s.probeFilter(func() bool { return r.filter.Contains(key) }); usable && !ok {
					continue
				}
			}
			s.devRead(1)
			if e, ok := r.find(key); ok {
				return e.Value, !e.Tombstone
			}
		}
	}
	return 0, false
}

// GetBatch performs a batch of point lookups, writing the value and
// presence of keys[i] into values[i] and found[i] (both must be at
// least len(keys) long). Results and I/O accounting are identical to
// calling Get per key; the win is on the filter side: each run's filter
// is probed with the whole surviving key batch through its native
// batched path (hash-once/probe-many) before any data block is touched,
// instead of re-entering the filter once per key. The batch's filter
// probes and fault-free device reads are charged to the shared counters
// once per call, not once per key.
func (s *Store) GetBatch(keys []uint64, values []uint64, found []bool) {
	_ = values[:len(keys)]
	_ = found[:len(keys)]
	sc := getBatchPool.Get().(*getBatchScratch)
	pending := sc.pending[:0]
	inRange, mustProbe := sc.inRange, sc.mustProbe
	probeKeys, probeOut, resolved := sc.probeKeys, sc.probeOut, sc.resolved
	defer func() {
		sc.pending, sc.inRange, sc.mustProbe = pending, inRange, mustProbe
		sc.probeKeys, sc.probeOut, sc.resolved = probeKeys, probeOut, resolved
		getBatchPool.Put(sc)
	}()
	s.mu.RLock()
	for i, k := range keys {
		values[i], found[i] = 0, false
		if e, ok := s.mem[k]; ok {
			values[i], found[i] = e.Value, !e.Tombstone
			continue
		}
		pending = append(pending, int32(i))
	}
	s.mu.RUnlock()
	v := s.view.Load()
	if len(v.frozen) > 0 && len(pending) > 0 {
		kept := pending[:0]
		for _, i := range pending {
			if e, ok := frozenLookup(v.frozen, keys[i]); ok {
				values[i], found[i] = e.Value, !e.Tombstone
				continue
			}
			kept = append(kept, i)
		}
		pending = kept
	}
	if len(pending) == 0 {
		return
	}
	if s.opts.Policy == PolicyMaplet {
		s.mapletGetBatch(keys, values, found, pending)
		return
	}
	// Scratch for the per-run sub-batches (pooled — this path runs per
	// service request at steady state). inRange holds the pending batch
	// positions whose key falls in the run's key range; probeKeys/
	// probeOut hold the (smaller) sub-batch whose filter probe was
	// usable; resolved marks batch positions answered by some run.
	if cap(inRange) < len(pending) {
		inRange = make([]int32, 0, len(pending))
	}
	if cap(mustProbe) < len(pending) {
		mustProbe = make([]bool, len(pending))
	}
	if cap(probeKeys) < len(pending) {
		probeKeys = make([]uint64, 0, len(pending))
	}
	if cap(probeOut) < len(pending) {
		probeOut = make([]bool, len(pending))
	}
	probeOut = probeOut[:len(pending)]
	if cap(resolved) < len(keys) {
		resolved = make([]bool, len(keys))
	}
	resolved = resolved[:len(keys)]
	for i := range resolved {
		resolved[i] = false
	}
	probes, reads := 0, 0
	for level := 0; level < len(v.levels) && len(pending) > 0; level++ {
		for _, r := range v.levels[level] { // newest first
			if len(pending) == 0 {
				break
			}
			if len(r.entries) == 0 {
				continue
			}
			minK, maxK := r.minKey(), r.maxKey()
			inRange = inRange[:0]
			for _, i := range pending {
				if k := keys[i]; k >= minK && k <= maxK {
					inRange = append(inRange, i)
				}
			}
			if len(inRange) == 0 {
				continue
			}
			// Filter pass: judge each key's probe (fault injection is
			// per probe, as in the scalar path), then answer all usable
			// probes with one batched filter call. mustProbe[j] records
			// that inRange[j] needs the data I/O regardless.
			mustProbe = mustProbe[:len(inRange)]
			if r.filter != nil {
				probeKeys = probeKeys[:0]
				probes += len(inRange)
				for j, i := range inRange {
					usable := true
					if s.opts.FilterFaults != nil {
						if o := s.opts.FilterFaults.Next(); o.Err != nil || o.FlipBit >= 0 {
							s.filterFallbacks.Add(1)
							usable = false
						}
					}
					mustProbe[j] = !usable
					if usable {
						probeKeys = append(probeKeys, keys[i])
					}
				}
				core.ContainsBatch(r.filter, probeKeys, probeOut[:len(probeKeys)])
				p := 0
				for j := range inRange {
					if !mustProbe[j] {
						mustProbe[j] = probeOut[p]
						p++
					}
				}
			} else {
				for j := range mustProbe {
					mustProbe[j] = true
				}
			}
			// Data pass: pay one read per surviving key, resolve hits.
			resolvedAny := false
			for j, i := range inRange {
				if !mustProbe[j] {
					continue
				}
				reads++
				if e, ok := r.find(keys[i]); ok {
					values[i], found[i] = e.Value, !e.Tombstone
					resolved[i] = true
					resolvedAny = true
				}
			}
			if resolvedAny {
				next := pending[:0]
				for _, i := range pending {
					if !resolved[i] {
						next = append(next, i)
					}
				}
				pending = next
			}
		}
	}
	if probes > 0 {
		s.filterProbes.Add(int64(probes))
	}
	s.devReads(reads)
}

// getBatchScratch holds GetBatch's per-call worklists. They are pooled
// so a hot batched read path allocates nothing at steady state; no
// slice retains store data, only key copies and positions.
type getBatchScratch struct {
	pending   []int32
	inRange   []int32
	mustProbe []bool
	probeKeys []uint64
	probeOut  []bool
	resolved  []bool
}

var getBatchPool = sync.Pool{New: func() any { return new(getBatchScratch) }}

// frozenLookup probes the frozen memtables, newest first.
func frozenLookup(frozen []*memRun, key uint64) (Entry, bool) {
	for _, fm := range frozen {
		if e, ok := fm.entries[key]; ok {
			return e, true
		}
	}
	return Entry{}, false
}

// mapletGet resolves a point lookup through the global maplet, the
// store's primary index: each candidate value packs (run id, block
// offset), so a hit costs one maplet probe plus one block read — no
// per-run filter probes and no whole-run binary search. Candidates
// carrying the unknown-offset sentinel (loaded from a v1 image, or a
// run too deep for the offset width) fall back to a whole-run search
// at the same single charged read. When the maplet block itself cannot
// be read, the lookup degrades to probing every overlapping run (the
// PolicyNone cost) rather than failing.
//
// Three ordering rules make this exact under concurrency (and under
// run-id recycling, where a numerically higher id says nothing about
// recency):
//
//   - Candidates are probed in view order — levels top-down, runs
//     newest first within a level — so the newest version of the key
//     (its tombstone included) always wins.
//   - The maplet is read after loading the view, and the result only
//     counts if the view pointer is unchanged afterwards (a compaction
//     publishing mid-probe may have remapped entries this view still
//     needs).
//   - A candidate whose run id the view does not hold means a
//     compaction remap is mid-flight: the freshest version of this key
//     may already have been re-pointed at a run the view cannot see
//     yet, so the whole result — hit or not — is inconclusive, probing
//     is skipped, and the lookup retries against a fresher view. If it
//     keeps losing that race it falls back to probing every
//     overlapping run, which needs no maplet at all.
func (s *Store) mapletGet(key uint64) (uint64, bool) {
	s.filterProbes.Add(1)
	if s.opts.FilterFaults != nil {
		if o := s.opts.FilterFaults.Next(); o.Err != nil || o.FlipBit >= 0 {
			s.filterFallbacks.Add(1)
			return s.probeAllRuns(s.view.Load(), key)
		}
	}
	sc := mapletGetPool.Get().(*mapletGetScratch)
	defer mapletGetPool.Put(sc)
	for attempt := 0; attempt < 4; attempt++ {
		v := s.view.Load()
		sc.cand = s.maplet.GetAppend(sc.cand[:0], key)
		value, live, found, conclusive := s.mapletResolve(v, key, sc.cand)
		if !conclusive || s.view.Load() != v {
			continue
		}
		return value, found && live
	}
	s.mapletFallbacks.Add(1)
	return s.probeAllRuns(s.view.Load(), key)
}

// mapletResolve probes a candidate list against one view snapshot.
// conclusive is false when some candidate's run id is absent from the
// view (a compaction remap is mid-flight; see mapletGet); no device
// read is charged in that case.
func (s *Store) mapletResolve(v *view, key uint64, cand []uint64) (value uint64, live, found, conclusive bool) {
	if len(cand) == 0 {
		return 0, false, false, true
	}
	// Candidates come back sorted (the maplet run is value-ordered), so
	// duplicates — colliding fingerprints packed identically — sit
	// adjacent and are screened and probed once.
	for i, c := range cand {
		if i > 0 && c == cand[i-1] {
			continue
		}
		if !viewHasRun(v, s.mapletValRun(c)) {
			return 0, false, false, false
		}
	}
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			for i, c := range cand {
				if i > 0 && c == cand[i-1] {
					continue
				}
				if s.mapletValRun(c) != r.id {
					continue
				}
				s.devRead(1)
				if e, ok := search(s.candEntries(r, c), key); ok {
					return e.Value, !e.Tombstone, true, true
				}
			}
		}
	}
	return 0, false, false, true
}

// viewHasRun reports whether the view holds a run with this id.
func viewHasRun(v *view, id uint64) bool {
	for _, level := range v.levels {
		for _, r := range level {
			if r.id == id {
				return true
			}
		}
	}
	return false
}

// mapletGetScratch pools mapletGet's candidate buffer (≤1+ε entries at
// steady state) so the serving hot path allocates nothing.
type mapletGetScratch struct{ cand []uint64 }

var mapletGetPool = sync.Pool{New: func() any { return new(mapletGetScratch) }}

// mapletGetBatch is mapletGet over a pending sub-batch, with the same
// results, ordering rules, retries and fallback, and the same charge:
// one read per probed candidate. It is a batch kernel rather than a
// loop of mapletGet: per attempt, one maplet probe (hash-once under a
// single read lock) fetches every unresolved key's candidates, one pass
// ranks each candidate's run in the view, every key's newest candidate
// block is searched together (searchBlocks), and only a key that misses
// there walks its older candidates, newest first. The batch's probes
// and fault-free reads reach the shared counters once per call.
func (s *Store) mapletGetBatch(keys []uint64, values []uint64, found []bool, pending []int32) {
	sc := mapletBatchPool.Get().(*mapletBatchScratch)
	defer mapletBatchPool.Put(sc)
	// Fault pass: judge each key's maplet probe once, as a run filter
	// probe is judged; faulted keys degrade to the filterless walk.
	s.filterProbes.Add(int64(len(pending)))
	rem := sc.rem[:0]
	for _, i := range pending {
		if ff := s.opts.FilterFaults; ff != nil {
			if o := ff.Next(); o.Err != nil || o.FlipBit >= 0 {
				s.filterFallbacks.Add(1)
				values[i], found[i] = s.probeAllRuns(s.view.Load(), keys[i])
				continue
			}
		}
		rem = append(rem, i)
	}
	reads := 0
	for attempt := 0; attempt < 4 && len(rem) > 0; attempt++ {
		v := s.view.Load()
		runs, rank := sc.rankRuns(v)
		kbuf := sc.keys[:0]
		for _, i := range rem {
			kbuf = append(kbuf, keys[i])
		}
		ends, cand := s.maplet.GetBatch(kbuf, sc.ends[:0], sc.cand[:0])
		state, hits := resize(sc.state, len(rem)), resize(sc.hits, len(rem))
		crank := resize(sc.crank, len(cand))
		sc.keys, sc.ends, sc.cand, sc.state, sc.hits, sc.crank = kbuf, ends, cand, state, hits, crank
		// Rank pass: crank[ci] is candidate ci's position in runs (-1 for
		// a duplicate: colliding fingerprints packed identically sit
		// adjacent in the value-ordered maplet run and are probed once).
		// Each key with candidates all in the view stages its newest.
		probes := sc.probes[:0]
		lo := int32(0)
		for j, hi := range ends {
			state[j] = keyAbsent
			newest := int32(-1)
			for ci := lo; ci < hi; ci++ {
				crank[ci] = -1
				if ci > lo && cand[ci] == cand[ci-1] {
					continue
				}
				id := s.mapletValRun(cand[ci])
				if id >= uint64(len(rank)) || rank[id] < 0 {
					state[j] = keyRetry
					break
				}
				crank[ci] = rank[id]
				if newest < 0 || crank[ci] < crank[newest] {
					newest = ci
				}
			}
			if state[j] == keyAbsent && newest >= 0 {
				probes = append(probes, blockProbe{
					seg: s.candEntries(runs[crank[newest]], cand[newest]),
					key: kbuf[j], j: int32(j), ci: newest,
				})
			}
			lo = hi
		}
		reads += len(probes)
		searchBlocks(probes)
		for k := range probes {
			p := &probes[k]
			if e, ok := p.result(); ok {
				state[p.j], hits[p.j] = keyHit, e
				continue
			}
			// Missed: walk the key's older candidates in view order — the
			// rest of the probed candidate's run, then the runs after it —
			// re-staging this probe for each until one hits.
			lo, hi, first, top := int32(0), ends[p.j], p.ci, crank[p.ci]
			if p.j > 0 {
				lo = ends[p.j-1]
			}
			for rk := top; hi-lo > 1 && rk < int32(len(runs)) && state[p.j] != keyHit; rk++ {
				for ci := lo; ci < hi; ci++ {
					if crank[ci] != rk || (rk == top && ci <= first) {
						continue
					}
					reads++
					p.seg, p.ci = s.candEntries(runs[rk], cand[ci]), ci
					searchBlocks(probes[k : k+1])
					if e, ok := p.result(); ok {
						state[p.j], hits[p.j] = keyHit, e
						break
					}
				}
			}
		}
		clear(probes) // pool no references into the store's runs
		sc.probes = probes
		if s.view.Load() != v {
			continue // commit nothing; retry the whole remainder
		}
		next := rem[:0]
		for j, i := range rem {
			switch state[j] {
			case keyHit:
				values[i], found[i] = hits[j].Value, !hits[j].Tombstone
			case keyAbsent:
				values[i], found[i] = 0, false
			default:
				next = append(next, i)
			}
		}
		rem = next
	}
	clear(sc.runs)
	sc.rem = rem
	s.devReads(reads)
	for _, i := range rem {
		s.mapletFallbacks.Add(1)
		values[i], found[i] = s.probeAllRuns(s.view.Load(), keys[i])
	}
}

// A key's outcome in one mapletGetBatch attempt.
const (
	keyAbsent int8 = iota // no candidate, or every candidate probed without a hit
	keyHit                // hits holds the key's newest entry
	keyRetry              // a candidate's run is not in this view
)

// mapletBatchScratch pools mapletGetBatch's worklists. Its run
// references are cleared before it is pooled, so it retains no store
// data, only key copies, packed values, entry copies and positions.
type mapletBatchScratch struct {
	rem    []int32  // pending positions still unresolved
	keys   []uint64 // their keys: the maplet probe's input
	ends   []int32  // the probe's output: per-key candidate bounds
	cand   []uint64 // and packed candidates
	crank  []int32  // each candidate's position in runs (-1: duplicate)
	state  []int8   // per remaining key: keyAbsent, keyHit or keyRetry
	hits   []Entry
	probes []blockProbe
	runs   []*run  // the attempt's view in probe order
	rank   []int32 // run id → position in runs (-1: not in the view)
}

var mapletBatchPool = sync.Pool{New: func() any { return new(mapletBatchScratch) }}

// rankRuns flattens v's runs into probe order — levels top-down, runs
// newest first — and indexes them by id.
func (sc *mapletBatchScratch) rankRuns(v *view) (runs []*run, rank []int32) {
	runs = sc.runs[:0]
	top := uint64(0)
	for _, level := range v.levels {
		for _, r := range level {
			runs = append(runs, r)
			top = max(top, r.id)
		}
	}
	rank = resize(sc.rank, int(top)+1)
	for i := range rank {
		rank[i] = -1
	}
	for i, r := range runs {
		rank[r.id] = int32(i)
	}
	sc.runs, sc.rank = runs, rank
	return runs, rank
}

// resize returns s with length n, reallocating only when it lacks the
// capacity; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// candEntries is the span one charged read of candidate c covers: its
// block of r when the offset is exact, all of r for the unknown-offset
// sentinel.
func (s *Store) candEntries(r *run, c uint64) []Entry {
	if off, exact := s.mapletValOffset(c); exact {
		return r.block(off)
	}
	return r.entries
}

// blockProbe is one staged search for key in seg, a sorted span of one
// run. searchBlocks narrows the window seg[base:base+n] to at most one
// entry, which is key's if seg holds it.
type blockProbe struct {
	seg     []Entry
	key     uint64
	base, n int
	j, ci   int32 // the key's position in the attempt, and its candidate
}

// searchBlocks searches every probe's span at once. Each round halves
// every open window with one branch-free step, so a round's loads are
// independent and their cache misses overlap, where searching one key
// at a time pays its ~7 dependent misses back to back.
func searchBlocks(ps []blockProbe) {
	rounds := 0
	for i := range ps {
		n := len(ps[i].seg)
		ps[i].base, ps[i].n = 0, n
		if n > 1 {
			rounds = max(rounds, bits.Len(uint(n-1))) // halvings to reach 1
		}
	}
	for ; rounds > 0; rounds-- {
		for i := range ps {
			p := &ps[i]
			n, base := p.n, p.base
			if n <= 1 {
				continue
			}
			half := n >> 1
			if p.seg[base+half].Key <= p.key {
				base += half // a conditional move: the compare's outcome is a coin flip
			}
			p.base, p.n = base, n-half
		}
	}
}

// result reports what searchBlocks found for the probe.
func (p *blockProbe) result() (Entry, bool) {
	if p.n == 1 && p.seg[p.base].Key == p.key {
		return p.seg[p.base], true
	}
	return Entry{}, false
}

// probeAllRuns is the filterless fallback: binary-search every run whose
// key range covers key, newest first, paying one read per probed run.
func (s *Store) probeAllRuns(v *view, key uint64) (uint64, bool) {
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			if len(r.entries) == 0 || key < r.minKey() || key > r.maxKey() {
				continue
			}
			s.devRead(1)
			if e, ok := r.find(key); ok {
				return e.Value, !e.Tombstone
			}
		}
	}
	return 0, false
}

// Scan returns all live entries with keys in [lo, hi], using range
// filters (when configured) to skip runs. It merges the snapshot's
// sources newest-first in a single pass: each key is resolved exactly
// once, so a tombstone shadows every older version of its key even
// while a compaction races the scan.
func (s *Store) Scan(lo, hi uint64) []Entry {
	// Sources in newest-first order: active memtable, frozen memtables,
	// then levels top-down with runs newest first. Each source is an
	// ascending-sorted slice; the first source holding a key wins.
	var sources [][]Entry
	var mem []Entry
	s.mu.RLock()
	for k, e := range s.mem {
		if k >= lo && k <= hi {
			mem = append(mem, e)
		}
	}
	s.mu.RUnlock()
	v := s.view.Load()
	sort.Slice(mem, func(i, j int) bool { return mem[i].Key < mem[j].Key })
	sources = append(sources, mem)
	for _, fm := range v.frozen {
		var part []Entry
		for k, e := range fm.entries {
			if k >= lo && k <= hi {
				part = append(part, e)
			}
		}
		sort.Slice(part, func(i, j int) bool { return part[i].Key < part[j].Key })
		sources = append(sources, part)
	}
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			if len(r.entries) == 0 || hi < r.minKey() || lo > r.maxKey() {
				continue
			}
			if r.rangeF != nil {
				if ok, usable := s.probeFilter(func() bool { return r.rangeF.MayContainRange(lo, hi) }); usable && !ok {
					continue
				}
			}
			s.devRead(1)
			i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].Key >= lo })
			j := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].Key > hi })
			sources = append(sources, r.entries[i:j])
		}
	}
	return mergeSources(sources)
}

// mergeSources merges ascending-sorted entry slices into the live
// result: among sources holding the same key, the earliest (newest)
// wins; tombstones suppress their key. Output is ascending by key.
func mergeSources(sources [][]Entry) []Entry {
	idx := make([]int, len(sources))
	total := 0
	for _, src := range sources {
		total += len(src)
	}
	out := make([]Entry, 0, total)
	for {
		// Find the smallest pending key and the newest source holding it.
		best := -1
		var bestKey uint64
		for si, src := range sources {
			if idx[si] >= len(src) {
				continue
			}
			k := src[idx[si]].Key
			if best == -1 || k < bestKey {
				best, bestKey = si, k
			}
		}
		if best == -1 {
			return out
		}
		winner := sources[best][idx[best]]
		// Advance every source sitting on this key (older versions are
		// superseded — this is the single dedup point).
		for si, src := range sources {
			if idx[si] < len(src) && src[idx[si]].Key == bestKey {
				idx[si]++
			}
		}
		if !winner.Tombstone {
			out = append(out, winner)
		}
	}
}

// Levels returns the number of allocated levels.
func (s *Store) Levels() int { return len(s.view.Load().levels) }

// Runs returns the total number of live runs (reads probe up to this
// many under tiering).
func (s *Store) Runs() int {
	n := 0
	for _, level := range s.view.Load().levels {
		n += len(level)
	}
	return n
}

// FilterMemoryBits returns the total filter footprint (per-run filters or
// the global maplet).
func (s *Store) FilterMemoryBits() int {
	if s.maplet != nil {
		return s.maplet.SizeBits()
	}
	total := 0
	for _, level := range s.view.Load().levels {
		for _, r := range level {
			if r.filter != nil {
				total += r.filter.SizeBits()
			}
		}
	}
	return total
}

// Len returns the number of live entries (exact; walks all runs).
func (s *Store) Len() int {
	keys := map[uint64]bool{}
	s.mu.RLock()
	for k, e := range s.mem {
		keys[k] = !e.Tombstone
	}
	s.mu.RUnlock()
	v := s.view.Load()
	for _, fm := range v.frozen {
		for k, e := range fm.entries {
			if _, ok := keys[k]; !ok {
				keys[k] = !e.Tombstone
			}
		}
	}
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			for _, e := range r.entries {
				if _, ok := keys[e.Key]; !ok {
					keys[e.Key] = !e.Tombstone
				}
			}
		}
	}
	n := 0
	for _, live := range keys {
		if live {
			n++
		}
	}
	return n
}
