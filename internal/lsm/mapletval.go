package lsm

// Maplet value packing (PolicyMaplet). The global maplet is the
// store's primary index: each entry's value packs the run holding the
// key together with the key's block offset inside that run, so a hit
// costs one maplet probe plus one block read — no per-run probing and
// no whole-run binary search:
//
//	[ run id : mapletRunBits ][ block offset : s.mapOffBits ]
//
// Run ids fit mapletRunBits by construction: allocRunID recycles ids
// from a pool bounded by the live-run count (L0RunBudget plus the
// level tree), so ids never outgrow the width. The offset width is
// derived per store from its flush geometry: enough bits to address
// every entriesPerBlock-sized block of a run mapletOffsetLevels levels
// deep (MemtableSize · SizeRatio^levels entries), clamped to
// [mapletMinOffsetBits, mapletMaxOffsetBits]. The all-ones offset is
// reserved as the "offset unknown" sentinel: entries loaded from v1
// run-id-only checkpoint images, and entries of runs too deep for the
// width, carry it and resolve by whole-run binary search instead —
// graceful, never wrong. Compactions rewrite surviving entries with
// exact offsets, so sentinel entries disappear as the tree churns
// (lazy backfill).

const mapletRunBits = 16

const (
	mapletOffsetLevels  = 6
	mapletMinOffsetBits = 8
	mapletMaxOffsetBits = 20
)

// mapletOffsetBits derives the block-offset width from the store's
// flush geometry, keeping one code point spare for the sentinel.
func mapletOffsetBits(memtableSize, sizeRatio int) uint {
	entries := memtableSize
	for i := 0; i < mapletOffsetLevels && entries < 1<<40; i++ {
		entries *= sizeRatio
	}
	blocks := (entries + entriesPerBlock - 1) / entriesPerBlock
	bits := uint(mapletMinOffsetBits)
	for bits < mapletMaxOffsetBits && 1<<bits <= blocks {
		bits++
	}
	return bits
}

// mapletPack packs a run id and the entry's index into one maplet
// value; block offsets beyond the width clamp to the unknown sentinel.
func (s *Store) mapletPack(runID uint64, entryIndex int) uint64 {
	off := uint64(entryIndex) / entriesPerBlock
	if off >= s.mapOffNone {
		off = s.mapOffNone
	}
	return runID<<s.mapOffBits | off
}

// mapletValRun extracts the run id from a packed value.
func (s *Store) mapletValRun(v uint64) uint64 { return v >> s.mapOffBits }

// mapletValOffset extracts the block offset; exact is false for the
// unknown-offset sentinel, which requires a whole-run search.
func (s *Store) mapletValOffset(v uint64) (off uint64, exact bool) {
	off = v & s.mapOffNone
	return off, off != s.mapOffNone
}

// mapletSentinel rewrites a packed value's offset to the unknown
// sentinel — the shape entries loaded from v1 images take, which
// compaction's maplet edits must be able to target (see
// mapletRetireLocked).
func (s *Store) mapletSentinel(v uint64) uint64 { return v | s.mapOffNone }
