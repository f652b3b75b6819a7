package cuckoo

import (
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Adaptive is an adaptive cuckoo filter (§2.3): each slot word is
// fingerprint<<2 | selector, the selector choosing among numSelectors
// fingerprint functions. Fixing a false positive re-fingerprints the
// colliding stored entry with its next selector.
//
// Re-fingerprinting needs the stored key: the broom-filter model's
// remote representation, the dictionary the filter guards. The table
// keeps it beside each slot and moves it with the slot, so a relocated
// entry keeps its selector and a repair stays repaired. Its space is not
// charged to SizeBits, just as a filter is not charged for the database
// it fronts.
type Adaptive struct {
	table
	fpBits uint
	seed   uint64
	adapts int
}

const numSelectors = 4 // 2 selector bits per slot

// NewAdaptive returns an adaptive cuckoo filter for about n keys with
// fpBits-bit fingerprints.
func NewAdaptive(n int, fpBits uint) *Adaptive {
	if fpBits < 2 || fpBits > 30 {
		panic("cuckoo: adaptive fingerprint bits must be in [2,30]")
	}
	a := &Adaptive{fpBits: fpBits, seed: 0xADA97}
	// The candidate buckets derive from the selector-0 fingerprint, so
	// they are stable across selector swaps.
	a.table = newTable(n, 0x1234567890ABCDEF, 1, func(e entry) uint64 { return a.fpOf(e.key, 0) })
	a.alloc(fpBits+2, true)
	return a
}

// fpOf computes key's fingerprint under selector sel.
func (a *Adaptive) fpOf(key, sel uint64) uint64 {
	return hashutil.Fingerprint(hashutil.MixSeed(key, a.seed^(sel+1)*0xF00D), a.fpBits)
}

// buckets returns key's two candidate buckets.
func (a *Adaptive) buckets(key uint64) (uint64, uint64) {
	i1 := (hashutil.MixSeed(key, a.seed) >> 32) & (a.numBuckets - 1)
	return i1, a.other(i1, a.fpOf(key, 0))
}

// Insert adds key.
func (a *Adaptive) Insert(key uint64) error {
	i1, i2 := a.buckets(key)
	return a.insert(i1, i2, entry{word: a.fpOf(key, 0) << 2, key: key})
}

// Contains reports whether key may be present, honoring each entry's
// selector.
func (a *Adaptive) Contains(key uint64) bool {
	i1, i2 := a.buckets(key)
	found := false
	a.each(i1, i2, func(_ int, e entry) bool {
		found = e.word>>2 == a.fpOf(key, e.word&3)
		return !found
	})
	return found
}

// Adapt fixes a false positive for key: every entry currently matching
// key's fingerprint is re-fingerprinted from its stored key with the
// next selector, after which Contains(key) is false (unless the stored
// key still collides under the new selector, probability 2^-fpBits per
// entry).
func (a *Adaptive) Adapt(key uint64) {
	i1, i2 := a.buckets(key)
	a.each(i1, i2, func(pos int, e entry) bool {
		sel := e.word & 3
		if e.word>>2 != a.fpOf(key, sel) || e.key == key {
			return true // no match, or a true positive: nothing to fix
		}
		sel = (sel + 1) % numSelectors
		a.put(pos, entry{word: a.fpOf(e.key, sel)<<2 | sel, key: e.key})
		a.adapts++
		return true
	})
}

// Delete removes key if an entry holds exactly this key.
func (a *Adaptive) Delete(key uint64) error {
	i1, i2 := a.buckets(key)
	return a.remove(i1, i2, func(e entry) bool { return e.key == key })
}

// Adaptations returns how many selector swaps have occurred.
func (a *Adaptive) Adaptations() int { return a.adapts }

var _ core.AdaptiveFilter = (*Adaptive)(nil)
