package lsm

import (
	"math/bits"
	"slices"
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
	return s.probeRuns(v, key)
}

// GetBatch performs a batch of point lookups, writing the value and
// presence of keys[i] into values[i] and found[i] (both must be at
// least len(keys) long). Results and I/O accounting are identical to
// calling Get per key, except that with FilterFaults armed the batch
// draws its per-run filter faults run by run, not key by key, so a
// different probe may fault and pay the extra read (the probe and fault
// counts still match). The win is on the filter side: each run's filter
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
	probeKeys, probeOut, resolved, recs := sc.probeKeys, sc.probeOut, sc.resolved, sc.recs
	defer func() {
		sc.pending, sc.inRange, sc.mustProbe = pending, inRange, mustProbe
		sc.probeKeys, sc.probeOut, sc.resolved, sc.recs = probeKeys, probeOut, resolved, recs
		getBatchPool.Put(sc)
	}()
	clear(values[:len(keys)])
	clear(found[:len(keys)])
	s.mu.RLock()
	if len(s.mem) == 0 {
		pending = slices.Grow(pending, len(keys))[:len(keys)]
		for i := range pending {
			pending[i] = int32(i)
		}
	} else {
		for i, k := range keys {
			if e, ok := s.mem[k]; ok {
				values[i], found[i] = e.Value, !e.Tombstone
				continue
			}
			pending = append(pending, int32(i))
		}
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
	// usable; recs hold the spans the data pass searches; resolved marks
	// batch positions answered by some run.
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
	if cap(recs) < len(pending) {
		recs = make([]readRec, 0, len(pending))
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
					mustProbe[j] = s.filterFaulted()
					if !mustProbe[j] {
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
			// Data pass: pay one read per surviving key and narrow it to
			// its span (an empty span misses without a search), search
			// every span together, and resolve the hits.
			recs = recs[:0]
			for j, i := range inRange {
				if !mustProbe[j] {
					continue
				}
				reads++
				if base, n := r.bounds(keys[i]); n > 0 {
					recs = append(recs, readRec{key: keys[i], base: base, n: n, j: i})
				}
			}
			searchBlocks(recs, r.entries)
			resolvedAny := false
			for k := range recs {
				p := &recs[k]
				if e := &r.entries[p.base]; e.Key == p.key {
					values[p.j], found[p.j] = e.Value, !e.Tombstone
					resolved[p.j] = true
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
	recs      []readRec
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
// store's primary index: each candidate value is a run id, and the
// run's radix start table narrows the key to one span, so a hit costs
// one maplet probe plus one charged read — no per-run filter probes.
// When the maplet block itself cannot be read, the lookup degrades to
// probing every overlapping run (the PolicyNone cost) rather than
// failing.
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
	if s.filterFaulted() {
		return s.probeRuns(s.view.Load(), key)
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
	return s.probeRuns(s.view.Load(), key)
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
	// duplicates — colliding fingerprints in one run — sit adjacent and
	// are screened and probed once.
	for i, c := range cand {
		if i > 0 && c == cand[i-1] {
			continue
		}
		if !viewHasRun(v, c) {
			return 0, false, false, false
		}
	}
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			for i, c := range cand {
				if c != r.id || (i > 0 && c == cand[i-1]) {
					continue
				}
				s.devRead(1)
				if e, ok := search(r.span(key), key); ok {
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
// one read per probed candidate. It is one batch kernel, not a loop of
// mapletGet. Each attempt takes the remaining keys a chunk at a time
// and keeps a fixed record per key (readRec). The maplet's batch probe
// (hash-once, under one read lock per chunk) gives each key its
// candidate count and first candidate, with the rare extra candidates
// spilled to a side list. One pass then places each key's newest
// candidate run in the view and narrows the key to that run's span.
// The branch-free search rounds (searchBlocks) search every span
// together. Only a key that misses there walks its older candidates,
// newest first. The batch's probes and fault-free reads reach the
// shared counters once per call.
func (s *Store) mapletGetBatch(keys []uint64, values []uint64, found []bool, pending []int32) {
	sc := mapletBatchPool.Get().(*mapletBatchScratch)
	defer mapletBatchPool.Put(sc)
	// Fault pass: judge each key's maplet probe once, as a run filter
	// probe is judged; faulted keys degrade to the filterless walk.
	s.filterProbes.Add(int64(len(pending)))
	rem := pending
	if s.opts.FilterFaults != nil {
		rem = sc.rem[:0]
		for _, i := range pending {
			if s.filterFaulted() {
				values[i], found[i] = s.probeRuns(s.view.Load(), keys[i])
				continue
			}
			rem = append(rem, i)
		}
		sc.rem = rem
	}
	reads := 0
	for attempt := 0; attempt < 4 && len(rem) > 0; attempt++ {
		v := s.view.Load()
		sc.rankRuns(v)
		retry := sc.retry[:0]
		for at := 0; at < len(rem); at += core.BatchChunk {
			chunk := rem[at:min(at+core.BatchChunk, len(rem))]
			var n int
			retry, n = s.mapletChunk(sc, keys, values, found, chunk, retry)
			reads += n
		}
		sc.retry = retry
		if s.view.Load() != v {
			// Retry the whole remainder; what this attempt wrote is
			// rewritten, and a key it found that turns out absent must
			// read as absent.
			for _, i := range rem {
				values[i], found[i] = 0, false
			}
			continue
		}
		rem = rem[:copy(rem, retry)]
	}
	clear(sc.runs)
	s.devReads(reads)
	for _, i := range rem {
		s.mapletFallbacks.Add(1)
		values[i], found[i] = s.probeRuns(s.view.Load(), keys[i])
	}
}

// readRec is one key's record for searchBlocks: the key, the span of
// its run still open to the search, entries [base, base+n), and where
// its answer goes. In mapletGetBatch's kernel pos is where the key's
// newest candidate run sits in the attempt's view and j the key's index
// in the chunk; GetBatch's per-run data pass sets j to the key's batch
// position.
type readRec struct {
	key     uint64
	base, n uint32
	pos     int32
	j       int32
}

// mapletChunk runs one attempt of mapletGetBatch over at most
// core.BatchChunk pending positions. It writes each resolved key's
// answer, appends the positions that need another attempt (a candidate
// run the view does not hold) to retry, and returns the reads charged.
func (s *Store) mapletChunk(sc *mapletBatchScratch, keys, values []uint64, found []bool, chunk, retry []int32) ([]int32, int) {
	first, count := sc.first[:len(chunk)], sc.count[:len(chunk)]
	more := s.maplet.ProbeBatch(keys, chunk, first, count, sc.more[:0])
	sc.more = more
	// Keep the keys with a candidate, without a branch on each. The
	// others are absent, as GetBatch has already written them.
	cand := sc.cand[:]
	nc := 0
	for j := range chunk {
		cand[nc] = uint16(j)
		nc += int(min(count[j], 1))
	}
	// Place pass: rank each key's candidates in the view, keep the newest
	// and narrow the key to its span there, tallying the keys per run. A
	// key whose span is empty is read and missed without a search.
	runs, rank, tally := sc.runs, sc.rank, sc.tally
	clear(tally)
	recs := &sc.recs
	nr, reads := 0, 0
	var spill []uint64 // the extra candidates of the key at hand
	for _, j := range cand[:nc] {
		i, c := chunk[j], count[j]
		pos := int32(-1)
		if id := first[j]; id < uint64(len(rank)) {
			pos = rank[id]
		}
		if c > 1 {
			// The key is placed in the newest of its candidates, unless
			// one names a run this view does not hold.
			spill, more = more[:c-1], more[c-1:]
			for _, id := range spill {
				if id >= uint64(len(rank)) || rank[id] < 0 {
					pos = -1
				}
				if pos >= 0 {
					pos = min(pos, rank[id])
				}
			}
		}
		if pos < 0 {
			retry = append(retry, i)
			continue
		}
		reads++
		key := keys[i]
		base, n := runs[pos].bounds(key)
		switch {
		case n > 0:
			// Field by field: a composite literal is built on the stack and
			// copied in, and the copy's wide load cannot forward from the
			// narrow stores that built it.
			p := &recs[nr]
			p.key, p.base, p.n, p.pos, p.j = key, base, n, pos, int32(j)
			tally[pos]++
			nr++
		case c > 1:
			values[i], found[i], reads = s.olderCandidates(sc, key, first[j], spill, pos, reads)
		}
	}
	// Group the records by run (a counting sort), so that each run's
	// search reads its entries through one slice.
	at := int32(0)
	for pos, t := range tally {
		tally[pos] = at
		at += t
	}
	byRun := &sc.byRun
	for k := range recs[:nr] {
		pos := recs[k].pos
		byRun[tally[pos]] = recs[k]
		tally[pos]++
	}
	lo := int32(0)
	for pos, hi := range tally {
		searchBlocks(byRun[lo:hi], runs[pos].entries)
		lo = hi
	}
	// Resolve pass: a key that missed its newest candidate walks the
	// others, which follow the extra candidates of the keys before it in
	// the side list.
	for k := range byRun[:nr] {
		p := &byRun[k]
		i := chunk[p.j]
		if e := &runs[p.pos].entries[p.base]; e.Key == p.key {
			values[i], found[i] = e.Value, !e.Tombstone
			continue
		}
		if c := count[p.j]; c > 1 {
			off := 0
			for _, c := range count[:p.j] {
				off += int(max(c, 1) - 1)
			}
			values[i], found[i], reads = s.olderCandidates(sc, p.key, first[p.j], sc.more[off:off+int(c)-1], p.pos, reads)
		}
	}
	return retry, reads
}

// olderCandidates walks a key's candidates after the newest, whose run
// sits at position top of the view and missed: in view order, one read
// each, until one holds the key. Candidates repeat only when colliding
// fingerprints in one run left identical entries, and each run is read
// once.
func (s *Store) olderCandidates(sc *mapletBatchScratch, key, first uint64, more []uint64, top int32, reads int) (uint64, bool, int) {
	for last := top; ; {
		next := int32(-1) // the nearest candidate run past last
		for k := -1; k < len(more); k++ {
			id := first
			if k >= 0 {
				id = more[k]
			}
			if p := sc.rank[id]; p > last && (next < 0 || p < next) {
				next = p
			}
		}
		if next < 0 {
			return 0, false, reads
		}
		reads++
		if e, ok := search(sc.runs[next].span(key), key); ok {
			return e.Value, !e.Tombstone, reads
		}
		last = next
	}
}

// mapletBatchScratch pools mapletGetBatch's worklists and its per-chunk
// records. Its run references are cleared before it is pooled, so it
// retains no store data, only keys, run ids and positions.
type mapletBatchScratch struct {
	rem   []int32  // pending positions whose maplet probe was usable
	retry []int32  // positions an attempt leaves for the next
	more  []uint64 // the chunk's extra candidates, key by key
	runs  []*run   // the attempt's view in probe order
	rank  []int32  // run id → position in runs (-1: not in the view)
	tally []int32  // per run: the chunk's records, then where they end
	recs  [core.BatchChunk]readRec
	byRun [core.BatchChunk]readRec
	first [core.BatchChunk]uint64
	count [core.BatchChunk]uint32
	cand  [core.BatchChunk]uint16
}

var mapletBatchPool = sync.Pool{New: func() any { return new(mapletBatchScratch) }}

// rankRuns flattens v's runs into probe order — levels top-down, runs
// newest first — and indexes them by id.
func (sc *mapletBatchScratch) rankRuns(v *view) {
	runs := sc.runs[:0]
	top := uint64(0)
	for _, level := range v.levels {
		for _, r := range level {
			runs = append(runs, r)
			top = max(top, r.id)
		}
	}
	rank := sc.rank[:0]
	for range top + 1 {
		rank = append(rank, -1)
	}
	for i, r := range runs {
		rank[r.id] = int32(i)
	}
	sc.runs, sc.rank = runs, rank
	sc.tally = append(sc.tally[:0], make([]int32, len(runs))...)
}

// searchBlocks searches every record's span at once: rec.key in seg,
// the entries of one run. Each round halves every open window with one
// branch-free step, so a round's loads are independent and their cache
// misses overlap, where searching one key at a time pays its ~7
// dependent misses back to back. A window of one entry steps in place,
// so no record needs a branch; afterwards each window holds one entry,
// which is the key's if the span holds it.
func searchBlocks(recs []readRec, seg []Entry) {
	rounds := 0
	for k := range recs {
		rounds = max(rounds, bits.Len32(recs[k].n-1)) // halvings to reach 1
	}
	for ; rounds > 0; rounds-- {
		for k := range recs {
			p := &recs[k]
			n, base := p.n, p.base
			half := n >> 1
			if seg[base+half].Key <= p.key {
				base += half // a conditional move: the compare's outcome is a coin flip
			}
			p.base, p.n = base, n-half
		}
	}
}

// probeRuns is the per-run point read: it walks every run whose key
// range covers key, newest first, skips a run whose filter rules the key
// out, and pays one read per other run to search the key's span. It is
// Get under the Bloom, Monkey and filterless policies and the maplet's
// fallback, whose runs carry no filter.
func (s *Store) probeRuns(v *view, key uint64) (uint64, bool) {
	for level := 0; level < len(v.levels); level++ {
		for _, r := range v.levels[level] { // newest first
			if len(r.entries) == 0 || key < r.minKey() || key > r.maxKey() {
				continue
			}
			if r.filter != nil {
				s.filterProbes.Add(1)
				if !s.filterFaulted() && !r.filter.Contains(key) {
					continue
				}
			}
			s.devRead(1)
			if e, ok := search(r.span(key), key); ok {
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
				s.filterProbes.Add(1)
				if !s.filterFaulted() && !r.rangeF.MayContainRange(lo, hi) {
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

// FilterMemoryBits returns the total in-memory index footprint: the
// global maplet or the per-run filters, plus every run's radix start
// table.
func (s *Store) FilterMemoryBits() int {
	total := 0
	if s.maplet != nil {
		total = s.maplet.SizeBits()
	}
	for _, level := range s.view.Load().levels {
		for _, r := range level {
			if r.filter != nil {
				total += r.filter.SizeBits()
			}
			total += 32 * len(r.start)
		}
	}
	return total
}

// MapletGeometry reports a PolicyMaplet store's initial maplet: 2^q0
// slots, w-bit run ids (0 for the other policies), doubling at load
// maxLoad.
func (s *Store) MapletGeometry() (q0, w uint, maxLoad float64) {
	if s.maplet != nil {
		w = s.maplet.m.ValueBits()
	}
	return mapletQ0, w, mapletMaxLoad
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
