package lsm

import (
	"io"
	"sync"

	"beyondbloom/internal/quotient"
)

// mapletIndex makes the global PolicyMaplet maplet safe for concurrent
// use: compaction mutates it (per-key remaps via Apply, best-effort
// strips via Delete) while readers probe it lock-free of the store
// mutex. Combined with the engine's ordering — maplet maintenance
// lands before the view swap publishes a new run, retired-run cleanup
// after — a reader whose view pointer is unchanged across its maplet
// read holds candidates covering every run of that view, so the maplet
// never produces a false negative mid-compaction (mapletGet detects
// the raced case and retries).
type mapletIndex struct {
	mu sync.RWMutex
	m  *quotient.Maplet
}

func newMapletIndex(m *quotient.Maplet) *mapletIndex {
	return &mapletIndex{m: m}
}

// GetAppend appends key's candidate packed values to dst (zero-alloc
// when dst has capacity).
func (mi *mapletIndex) GetAppend(dst []uint64, key uint64) []uint64 {
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	return mi.m.GetAppend(dst, key)
}

// GetBatch resolves every key's candidates under one read lock; see
// quotient.Maplet.GetBatch for the ends/dst contract.
func (mi *mapletIndex) GetBatch(keys []uint64, ends []int32, dst []uint64) ([]int32, []uint64) {
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	return mi.m.GetBatch(keys, ends, dst)
}

// mapletMaxLoad is the load factor at which the maplet doubles before
// admitting the next entry. A quotient table's clusters stay O(1)
// expected below it, and an insert shifts at most the rest of its
// cluster; filling to the brim instead makes the last inserts before
// each doubling shift a table-sized cluster, which is quadratic in the
// key count.
const mapletMaxLoad = 0.85

// PutExpanding associates a packed value with key, doubling the maplet
// first when it has reached mapletMaxLoad. The expansion and the put
// happen under one critical section, so readers never observe a
// half-built table. It fails with core.ErrFull once the maplet is at
// that load with no remainder bit left to sacrifice.
func (mi *mapletIndex) PutExpanding(key, val uint64) error {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return mi.putExpandingLocked(key, val)
}

func (mi *mapletIndex) putExpandingLocked(key, val uint64) error {
	if mi.m.LoadFactor() >= mapletMaxLoad {
		if err := mi.m.Expand(); err != nil {
			return err
		}
	}
	return mi.m.Put(key, val)
}

// Delete removes one (key, packed value) association (best effort).
func (mi *mapletIndex) Delete(key, val uint64) error {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return mi.m.Delete(key, val)
}

// mapletRemap is one key's compaction-time remap: delete each old
// packed entry (the key's versions in the source runs), then — when
// the key survives into the new run — insert the new one. Apply keeps
// each key's deletes and insert in one critical section, so readers
// never observe a transient state where some of a key's versions route
// and others don't (which could resurrect an older version of a
// dropped key).
type mapletRemap struct {
	key    uint64
	olds   []uint64 // packed values to delete
	newVal uint64   // packed value in the new run
	put    bool     // newVal is valid (false: the merge dropped the key)
}

// mapletApplyChunk bounds how many keys Apply remaps per write-lock
// acquisition, so a large compaction doesn't stall readers for its
// whole duration. Chunk boundaries fall only between keys.
const mapletApplyChunk = 256

// Apply performs a batch of per-key remaps. A delete that finds no
// exact entry retries with sentinel(old) — the unknown-offset shape
// that entries loaded from v1 images carry — and counts a miss only
// when both fail. Returns the miss count; a non-nil error means the
// maplet could not expand to admit an insert (the index is still
// coherent, but the caller's new run is unindexed).
func (mi *mapletIndex) Apply(ops []mapletRemap, sentinel func(uint64) uint64) (misses int, err error) {
	for len(ops) > 0 {
		n := len(ops)
		if n > mapletApplyChunk {
			n = mapletApplyChunk
		}
		mi.mu.Lock()
		for _, op := range ops[:n] {
			for _, old := range op.olds {
				if mi.m.Delete(op.key, old) == nil {
					continue
				}
				if alt := sentinel(old); alt != old && mi.m.Delete(op.key, alt) == nil {
					continue
				}
				misses++
			}
			if op.put {
				if perr := mi.putExpandingLocked(op.key, op.newVal); perr != nil {
					mi.mu.Unlock()
					return misses, perr
				}
			}
		}
		mi.mu.Unlock()
		ops = ops[n:]
	}
	return misses, nil
}

// SizeBits returns the maplet's physical footprint.
func (mi *mapletIndex) SizeBits() int {
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	return mi.m.SizeBits()
}

// Len returns the number of stored entries.
func (mi *mapletIndex) Len() int {
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	return mi.m.Len()
}

// WriteTo serializes the maplet under the read lock, so Save pins a
// consistent maplet image even mid-compaction.
func (mi *mapletIndex) WriteTo(w io.Writer) (int64, error) {
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	return mi.m.WriteTo(w)
}
