package cuckoo

import (
	"slices"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

const (
	// BucketSize is the set-associativity of the table. 4 is the paper's
	// choice, allowing 95% occupancy.
	BucketSize = 4
	// maxKicks bounds the eviction random walk before its homeless
	// entry is parked in the stash.
	maxKicks = 500
)

// table is the bucketed layer the filter, the maplet and the adaptive
// filter share: numBuckets buckets of BucketSize packed slot words, a
// zero word being an empty slot. An entry lives in one of two candidate
// buckets related by the partial-key trick, b ^ Mix64(tag), where tag
// is the entry's selector-free fingerprint. The structure supplies tag
// and the slot word's layout; the table owns the rest: the slots (and,
// for the adaptive filter, the stored key that moves with each slot),
// the deterministic RNG, the eviction walk, the stash, and the
// two-bucket scan.
//
// The overflow rule: insert returns ErrFull exactly when it stored
// nothing. While the stash is full an insert refuses before touching the
// table; a walk that fails parks the entry in hand in the stash and the
// insert succeeds. Scans see parked entries, and a delete that frees a
// slot re-seats one.
type table struct {
	slots      *bitvec.Packed
	keys       []uint64 // stored key per slot, moved with its word; nil when not kept
	numBuckets uint64
	n          int
	rngState   uint64
	stash      []parked
	stashCap   int
	tag        func(entry) uint64
}

// entry is one stored item: its slot word and, when the table keeps
// keys, the key it came from.
type entry struct {
	word uint64
	key  uint64
}

// parked is a stashed entry and one of its two candidate buckets.
type parked struct {
	entry
	bucket uint64
}

// wordTag is the tag of a structure whose slot word holds the
// fingerprint above shift low bits (the filter's and the maplet's).
func wordTag(shift uint) func(entry) uint64 {
	return func(e entry) uint64 { return e.word >> shift }
}

// newTable sizes a table for about n entries at 95% load, without its
// slots (see alloc; a decoder reads them instead).
func newTable(n int, rngState uint64, stashCap int, tag func(entry) uint64) table {
	buckets := uint64(1)
	for float64(buckets*BucketSize)*0.95 < float64(n) {
		buckets <<= 1
	}
	return table{numBuckets: buckets, rngState: rngState, stashCap: stashCap, tag: tag}
}

// alloc gives the table empty width-bit slots, and a stored key per
// slot when keepKeys is set.
func (t *table) alloc(width uint, keepKeys bool) {
	t.slots = bitvec.NewPacked(t.slotCount(), width)
	if keepKeys {
		t.keys = make([]uint64, t.slotCount())
	}
}

func (t *table) slotCount() int { return int(t.numBuckets) * BucketSize }

// other returns the partner of bucket b for an entry with tag.
func (t *table) other(b, tag uint64) uint64 {
	return (b ^ hashutil.Mix64(tag)) & (t.numBuckets - 1)
}

// A position names a slot, bucket*BucketSize+s, or past the slots the
// stash entry at pos-slotCount.
func (t *table) at(pos int) entry {
	if j := pos - t.slotCount(); j >= 0 {
		return t.stash[j].entry
	}
	e := entry{word: t.slots.Get(pos)}
	if t.keys != nil {
		e.key = t.keys[pos]
	}
	return e
}

func (t *table) put(pos int, e entry) {
	if j := pos - t.slotCount(); j >= 0 {
		t.stash[j].entry = e
		return
	}
	t.slots.Set(pos, e.word)
	if t.keys != nil {
		t.keys[pos] = e.key
	}
}

// place stores e in the first free slot of bucket b.
func (t *table) place(b uint64, e entry) bool {
	for pos := int(b) * BucketSize; pos < int(b+1)*BucketSize; pos++ {
		if t.slots.Get(pos) == 0 {
			t.put(pos, e)
			return true
		}
	}
	return false
}

// rand is xorshift64*: deterministic, no global rand dependency.
func (t *table) rand() uint64 {
	x := t.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rngState = x
	return x * 0x2545F4914F6CDD1D
}

// insert stores e, whose candidate buckets are i1 and i2, under the
// overflow rule. A full pair of buckets starts a random walk: each step
// swaps the entry in hand for a random slot's and carries the displaced
// one, word and key unchanged, to its other bucket.
func (t *table) insert(i1, i2 uint64, e entry) error {
	if len(t.stash) >= t.stashCap {
		return core.ErrFull
	}
	t.n++
	if t.place(i1, e) || t.place(i2, e) {
		return nil
	}
	cur := i1
	if t.rand()&1 == 0 {
		cur = i2
	}
	for k := 0; k < maxKicks; k++ {
		pos := int(cur)*BucketSize + int(t.rand()%BucketSize)
		victim := t.at(pos)
		t.put(pos, e)
		e = victim
		cur = t.other(cur, t.tag(e))
		if t.place(cur, e) {
			return nil
		}
	}
	t.stash = append(t.stash, parked{e, cur})
	return nil
}

// each calls fn on every entry homed at i1 or i2 — both buckets' slots
// (once when they coincide), then the parked entries — until fn returns
// false.
func (t *table) each(i1, i2 uint64, fn func(pos int, e entry) bool) {
	for _, b := range [2]uint64{i1, i2} {
		for pos := int(b) * BucketSize; pos < int(b+1)*BucketSize; pos++ {
			if e := t.at(pos); e.word != 0 && !fn(pos, e) {
				return
			}
		}
		if i1 == i2 {
			break
		}
	}
	for j, p := range t.stash {
		if (p.bucket == i1 || p.bucket == i2) && !fn(t.slotCount()+j, p.entry) {
			return
		}
	}
}

// parkedWord reports whether the stash holds word homed at i1 or i2.
func (t *table) parkedWord(i1, i2, word uint64) bool {
	for _, p := range t.stash {
		if p.word == word && (p.bucket == i1 || p.bucket == i2) {
			return true
		}
	}
	return false
}

// remove deletes the first entry homed at i1 or i2 that match accepts,
// in each's order, or reports ErrNotFound. A freed slot re-seats the
// first parked entry that fits.
func (t *table) remove(i1, i2 uint64, match func(entry) bool) error {
	at := -1
	t.each(i1, i2, func(pos int, e entry) bool {
		if match(e) {
			at = pos
		}
		return at < 0
	})
	if at < 0 {
		return core.ErrNotFound
	}
	t.n--
	if j := at - t.slotCount(); j >= 0 {
		t.stash = slices.Delete(t.stash, j, j+1)
		return nil
	}
	t.put(at, entry{})
	for j, p := range t.stash {
		if t.place(p.bucket, p.entry) || t.place(t.other(p.bucket, t.tag(p.entry)), p.entry) {
			t.stash = slices.Delete(t.stash, j, j+1)
			break
		}
	}
	return nil
}

// Len returns the number of stored entries.
func (t *table) Len() int { return t.n }

// SizeBits returns the slot table's footprint in bits. Stored keys model
// the remote dictionary the application pays for anyway and are not
// charged.
func (t *table) SizeBits() int { return t.slots.SizeBits() }
