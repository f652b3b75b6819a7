package lsm

import (
	"cmp"
	"fmt"
	"slices"

	"beyondbloom/internal/bloom"
)

// This file is the flush/compaction engine: every function here mutates
// the store's level tree (s.tree, s.runByID) and therefore runs only on
// the engine goroutine — the background worker in Background mode, or a
// caller holding mu's write lock in synchronous mode. Queries never
// touch the tree; they probe the immutable view published by
// publishLocked.

// flushMem writes one frozen memtable as a new level-0 run.
func (s *Store) flushMem(fm *memRun) {
	entries := make([]Entry, 0, len(fm.entries))
	for _, e := range fm.entries {
		entries = append(entries, e)
	}
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	s.pushRun(entries, nil, 0)
}

// levelCapacity returns the entry capacity of level i.
func (s *Store) levelCapacity(level int) int {
	c := s.opts.MemtableSize
	for i := 0; i <= level; i++ {
		c *= s.opts.SizeRatio
	}
	return c
}

// ensureLevel grows the level slice.
func (s *Store) ensureLevel(level int) {
	for len(s.tree) <= level {
		s.tree = append(s.tree, nil)
	}
}

// pushRun installs one new run at level, merged from its inputs, each
// newer than the next: fresh (a flushed memtable's sorted entries, nil
// for a compaction), the drained runs of the level above (newest
// first), and — under Leveling, or at the last level under
// LazyLeveling — the level's own runs, which the new run replaces.
// Otherwise the new run joins the level as its newest.
func (s *Store) pushRun(fresh []Entry, drained []*run, level int) {
	s.ensureLevel(level)
	// Lazy leveling merges only at the largest level, and never at level
	// 0 (before any compaction has opened deeper levels, level 0 is
	// trivially "last" and merging there would rewrite it every flush).
	if s.opts.Compaction == Leveling ||
		(s.opts.Compaction == LazyLeveling && level > 0 && s.isLastDataLevel(level)) {
		drained = append(drained[:len(drained):len(drained)], s.tree[level]...)
		s.tree[level] = nil
	}
	for _, old := range drained {
		s.devRead((len(old.entries) + entriesPerBlock - 1) / entriesPerBlock)
		s.retireRun(old)
	}
	// Tombstones drop only where nothing older than the inputs survives,
	// and only in a real merge: a lone input is rewritten as it is.
	inputs := len(drained)
	if fresh != nil {
		inputs++
	}
	drop := inputs > 1 && len(s.tree[level]) == 0 && s.isLastDataLevel(level)
	r := &run{id: s.allocRunID(), level: level}
	r.entries = s.merge(r.id, fresh, drained, drop)
	s.buildRun(r)
	s.tree[level] = append([]*run{r}, s.tree[level]...)
}

// isLastDataLevel reports whether no deeper level currently holds data.
func (s *Store) isLastDataLevel(level int) bool {
	for i := level + 1; i < len(s.tree); i++ {
		if len(s.tree[i]) > 0 {
			return false
		}
	}
	return true
}

// levelEntries counts entries across a level's runs.
func (s *Store) levelEntries(level int) int {
	n := 0
	for _, r := range s.tree[level] {
		n += len(r.entries)
	}
	return n
}

// allocRunID takes an id from the recycle pool (or mints a fresh one).
// Live-run bounds (mapletval.go) keep minted ids below idLimit.
func (s *Store) allocRunID() uint64 {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	if n := len(s.freeIDs); n > 0 {
		id := s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
		return id
	}
	s.nextID++
	if s.nextID >= s.idLimit {
		panic("lsm: run id space exhausted")
	}
	return s.nextID
}

// mergeHead is one merge input's unconsumed tail. src is the retired
// run it reads, nil for a flushed memtable, whose keys the maplet does
// not index yet.
type mergeHead struct {
	rest []Entry
	src  *run
}

// merge k-way merges pushRun's inputs — fresh, then runs, each newer
// than the next — into the entries of run id: each key keeps its newest
// entry, and tombstones go when drop is set. A lone input is already
// the run and is not copied. Under PolicyMaplet the same pass re-points
// the index at run id before the view swap publishes it, key by key
// under the maplet's write lock (mapletEditChunk keys per critical
// section): a key's entry naming one retired run is rewritten in place
// to name id, its older versions are deleted, a key no retired run
// indexed is put, and a dropped key's entries are deleted. (Keys that
// collide in one run hold identical entries; an edit may take either.)
// The fingerprint never changes, so only fresh keys can grow the
// maplet. A reader whose view is unchanged across its maplet read
// therefore holds candidates covering every run of that view;
// candidates naming the unpublished run mark the lookup inconclusive
// and it retries (see mapletGet).
func (s *Store) merge(id uint64, fresh []Entry, runs []*run, drop bool) []Entry {
	var buf [8]mergeHead // a merge has a handful of inputs; keep them off the heap
	in := buf[:0]
	total := len(fresh)
	if fresh != nil {
		in = append(in, mergeHead{rest: fresh})
	}
	for _, r := range runs {
		in = append(in, mergeHead{rest: r.entries, src: r})
		total += len(r.entries)
	}
	out := in[0].rest
	if len(in) > 1 {
		out = make([]Entry, 0, total)
	}
	mi := s.maplet
	if mi != nil {
		mi.mu.Lock()
	}
	misses := 0
	for keys := 0; ; keys++ {
		w := -1 // the newest input holding the smallest key
		for i := range in {
			if len(in[i].rest) > 0 && (w < 0 || in[i].rest[0].Key < in[w].rest[0].Key) {
				w = i
			}
		}
		if w < 0 {
			break
		}
		if mi != nil && keys > 0 && keys%mapletEditChunk == 0 {
			mi.mu.Unlock()
			mi.mu.Lock()
		}
		e := in[w].rest[0]
		keep := !drop || !e.Tombstone
		put := keep && mi != nil
		for i := w; i < len(in); i++ {
			h := &in[i]
			if len(h.rest) == 0 || h.rest[0].Key != e.Key {
				continue
			}
			if h.src != nil && mi != nil {
				// The first retired entry found moves to id; the rest go.
				var err error
				if put {
					err = mi.m.Update(e.Key, h.src.id, id)
				} else {
					err = mi.m.Delete(e.Key, h.src.id)
				}
				if err == nil {
					put = false
				} else {
					misses++
				}
			}
			h.rest = h.rest[1:]
		}
		if put {
			if err := mi.putExpandingLocked(e.Key, id); err != nil {
				mi.mu.Unlock()
				panic(fmt.Sprintf("lsm: maplet cannot expand: %v", err))
			}
		}
		if keep && len(in) > 1 {
			out = append(out, e)
		}
	}
	if mi != nil {
		mi.mu.Unlock()
	}
	if misses > 0 {
		s.mapletDeleteMisses.Add(int64(misses))
	}
	return out
}

// buildRun charges a new run's write I/O, builds its filters and radix
// start table and registers it with the engine.
func (s *Store) buildRun(r *run) {
	s.devWrite((len(r.entries) + entriesPerBlock - 1) / entriesPerBlock)
	var bf *bloom.Filter
	switch s.opts.Policy {
	case PolicyBloom:
		bf = bloom.NewBits(len(r.entries), s.opts.BitsPerKey)
	case PolicyMonkey:
		bf = bloom.New(len(r.entries), s.monkeyFPR(r.level))
	}
	if bf != nil {
		for _, e := range r.entries {
			bf.Insert(e.Key)
		}
		r.filter = bf
	}
	r.index()
	if s.opts.RangeFilter != nil {
		keys := make([]uint64, len(r.entries))
		for i, e := range r.entries {
			keys[i] = e.Key
		}
		r.rangeF = s.opts.RangeFilter(keys)
	}
	s.runByID[r.id] = r
}

// monkeyFPR returns the Monkey-assigned false-positive rate for a level:
// the largest level pays MonkeyBaseFPR; each smaller level pays a factor
// T less, so the series sums to ≈ base·T/(T-1) = O(base).
func (s *Store) monkeyFPR(level int) float64 {
	depth := len(s.tree) - 1 - level
	if depth < 0 {
		depth = 0
	}
	fpr := s.opts.MonkeyBaseFPR
	for i := 0; i < depth; i++ {
		fpr /= float64(s.opts.SizeRatio)
	}
	if fpr < 1e-9 {
		fpr = 1e-9
	}
	return fpr
}

// retireRun removes a compaction-superseded run from the engine's index.
// Its id returns to the pool here only in a synchronous snapshot-only
// store, where the new run takes it at once (the deterministic legacy
// order). Otherwise the run joins the retired list until release: in
// Background mode a reader of the view that still holds the run must
// never resolve a maplet candidate against a new run that took its id,
// and in a durable store a recycled id's fresh data must never meet the
// run's file, which stays until a committed manifest stops naming it.
func (s *Store) retireRun(old *run) {
	delete(s.runByID, old.id)
	s.idMu.Lock()
	defer s.idMu.Unlock()
	if s.bg || s.wal != nil {
		s.retired = append(s.retired, old)
		return
	}
	s.freeIDs = append(s.freeIDs, old.id)
}

// release returns to the pool the ids of the first n retired runs that
// keep does not name; the others stay retired. The Background engine of
// a snapshot-only store releases them all after each publish. A
// checkpoint passes the retired count its pin read and the runs its
// committed manifest names: a run retired before a pin and absent from
// the pinned view can never enter a later view. A run retired after the
// pin may also have been created after it, by a flush whose compaction
// is not published yet; freed now, its id could go to that compaction's
// output while a later checkpoint, pinning the still-published view,
// writes the run's file under it.
func (s *Store) release(n int, keep map[uint64]bool) {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	kept := s.retired[:0]
	for i, old := range s.retired {
		if i < n && !keep[old.id] {
			s.freeIDs = append(s.freeIDs, old.id)
		} else {
			kept = append(kept, old)
		}
	}
	clear(s.retired[len(kept):])
	s.retired = kept
}

// compact cascades oversized levels downward: a level that is full
// drains into the next one. Leveling drains a level's single run when it
// outgrows its capacity; tiering drains a level's runs once T
// accumulate. A full level at a maplet store's maxDepth merges its runs
// in place instead, as LazyLeveling's last level does.
func (s *Store) compact() {
	for level := 0; level < len(s.tree); level++ {
		var full bool
		switch s.opts.Compaction {
		case Leveling:
			full = s.levelEntries(level) > s.levelCapacity(level)
		case Tiering:
			full = len(s.tree[level]) >= s.opts.SizeRatio
		case LazyLeveling:
			// Tier every level except the largest; the largest spills to
			// a fresh deeper level when it outgrows its capacity.
			if level > 0 && s.isLastDataLevel(level) {
				full = s.levelEntries(level) > s.levelCapacity(level)
			} else {
				full = len(s.tree[level]) >= s.opts.SizeRatio
			}
		}
		if !full {
			continue
		}
		runs := s.tree[level]
		s.tree[level] = nil
		s.pushRun(nil, runs, min(level+1, s.maxDepth-1))
	}
}
