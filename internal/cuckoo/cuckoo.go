// Package cuckoo implements the cuckoo filter (Fan et al., §2.1 of the
// tutorial): a dynamic approximate set storing f-bit fingerprints in a
// 4-way associative table. Each key has two candidate buckets related by
// the partial-key XOR trick, so an item can be relocated ("kicked")
// without access to the original key. Supports deletion and duplicate
// insertion (multiset up to 2·bucketSize copies), plus a maplet variant
// that stores a value next to each fingerprint (§2.4).
package cuckoo

import (
	"fmt"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/swar"
)

const (
	// BucketSize is the set-associativity of the table. 4 is the paper's
	// choice, allowing 95% occupancy.
	BucketSize = 4
	// maxKicks bounds the eviction random walk before declaring the
	// filter full.
	maxKicks = 500
)

// Filter is a cuckoo filter over uint64 keys.
type Filter struct {
	spec       core.Spec      // construction parameters (capacity, fp bits, seed)
	slots      *bitvec.Packed // buckets * BucketSize fingerprints; 0 = empty
	numBuckets uint64
	fpBits     uint
	n          int
	rngState   uint64  // deterministic eviction-choice state
	victim     stashFP // one-entry victim cache for failed kick walks
}

// stashFP holds at most one evicted fingerprint together with one of its
// two home buckets (the reference implementation's "victim cache"). It
// preserves no-false-negative semantics when an insert's eviction walk
// fails: the last displaced fingerprint parks here instead of being
// dropped.
type stashFP struct {
	fp     uint64
	bucket uint64
	valid  bool
}

// New returns a cuckoo filter with capacity about n keys and fpBits-bit
// fingerprints (false-positive rate ≈ 2·BucketSize·2^-fpBits ≈ 8·2^-f).
func New(n int, fpBits uint) *Filter {
	f, err := FromSpec(core.Spec{Type: core.TypeCuckoo, N: n, FPBits: uint8(fpBits), Seed: 0xC0C0C0C0})
	if err != nil {
		panic(err)
	}
	return f
}

// FromSpec builds an empty cuckoo filter from its construction
// parameters — the one code path the constructors, the registry, and
// the decoder share.
func FromSpec(s core.Spec) (*Filter, error) {
	f, err := shape(s)
	if err != nil {
		return nil, err
	}
	f.slots = bitvec.NewPacked(int(f.numBuckets*BucketSize), f.fpBits)
	return f, nil
}

// shape is FromSpec without the fingerprint table: it validates s and
// derives the geometry, and the decoder reads the table from the
// payload.
func shape(s core.Spec) (*Filter, error) {
	if s.Type != core.TypeCuckoo {
		return nil, fmt.Errorf("cuckoo: spec type %d is not TypeCuckoo", s.Type)
	}
	if s.FPBits < 2 || s.FPBits > 32 {
		return nil, fmt.Errorf("cuckoo: fingerprint bits %d must be in [2,32]", s.FPBits)
	}
	if s.N < 0 || s.N > 1<<40 {
		return nil, fmt.Errorf("cuckoo: capacity %d out of range", s.N)
	}
	// Size to 95% max load: buckets = next pow2 of n / (0.95*4).
	buckets := uint64(1)
	for float64(buckets*BucketSize)*0.95 < float64(s.N) {
		buckets <<= 1
	}
	return &Filter{
		spec:       s,
		numBuckets: buckets,
		fpBits:     uint(s.FPBits),
		rngState:   0xDEADBEEF12345678,
	}, nil
}

// Spec returns the filter's construction parameters.
func (f *Filter) Spec() core.Spec { return f.spec }

// NewForEpsilon sizes fingerprints for a target false-positive rate:
// f = ceil(log2(2·BucketSize/ε)).
func NewForEpsilon(n int, epsilon float64) *Filter {
	f := uint(2)
	for ; f < 32; f++ {
		if float64(2*BucketSize)/float64(uint64(1)<<f) <= epsilon {
			break
		}
	}
	return New(n, f)
}

func (f *Filter) indexAndFP(key uint64) (i1 uint64, fp uint64) {
	h := hashutil.MixSeed(key, f.spec.Seed)
	fp = hashutil.Fingerprint(h, f.fpBits)
	i1 = (h >> 32) & (f.numBuckets - 1)
	return
}

// altIndex derives the partner bucket from a bucket index and the
// fingerprint alone (the partial-key cuckoo trick).
func (f *Filter) altIndex(i, fp uint64) uint64 {
	return (i ^ hashutil.Mix64(fp)) & (f.numBuckets - 1)
}

func (f *Filter) bucketSlot(bucket uint64, slot int) uint64 {
	return f.slots.Get(int(bucket)*BucketSize + slot)
}

func (f *Filter) setBucketSlot(bucket uint64, slot int, v uint64) {
	f.slots.Set(int(bucket)*BucketSize+slot, v)
}

// tryInsertAt places fp into bucket if a free slot exists.
func (f *Filter) tryInsertAt(bucket, fp uint64) bool {
	for s := 0; s < BucketSize; s++ {
		if f.bucketSlot(bucket, s) == 0 {
			f.setBucketSlot(bucket, s, fp)
			return true
		}
	}
	return false
}

func (f *Filter) nextRand() uint64 {
	// xorshift64* — deterministic, no global rand dependency.
	x := f.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	f.rngState = x
	return x * 0x2545F4914F6CDD1D
}

// Insert adds key. Duplicates are allowed (each occupies a slot) up to
// 2·BucketSize copies of one fingerprint. Returns ErrFull when the
// eviction walk fails, which happens near 95% occupancy.
func (f *Filter) Insert(key uint64) error {
	if f.victim.valid {
		// A previous walk already failed and its victim is parked; any
		// further displacement could drop a fingerprint. Refuse early.
		return core.ErrFull
	}
	i1, fp := f.indexAndFP(key)
	i2 := f.altIndex(i1, fp)
	if f.tryInsertAt(i1, fp) || f.tryInsertAt(i2, fp) {
		f.n++
		return nil
	}
	// Kick: random walk displacing fingerprints.
	cur := i1
	if f.nextRand()&1 == 0 {
		cur = i2
	}
	curFP := fp
	for k := 0; k < maxKicks; k++ {
		s := int(f.nextRand() % BucketSize)
		victim := f.bucketSlot(cur, s)
		f.setBucketSlot(cur, s, curFP)
		curFP = victim
		cur = f.altIndex(cur, curFP)
		if f.tryInsertAt(cur, curFP) {
			f.n++
			return nil
		}
	}
	// The walk failed. Every displaced fingerprint along the way was
	// re-inserted into a valid bucket except the final one in hand; park
	// it in the victim cache so membership is preserved, and report full.
	return f.stash(curFP, cur)
}

// stash parks fp (whose current home bucket is bucket) in the victim
// cache. If the cache is already taken the insert is refused outright —
// callers see ErrFull either way, but with an occupied cache the caller's
// key was never stored, so Insert re-reports full without side effects.
func (f *Filter) stash(fp, bucket uint64) error {
	if !f.victim.valid {
		f.victim = stashFP{fp: fp, bucket: bucket, valid: true}
		f.n++
	}
	return core.ErrFull
}

// victimMatches reports whether the victim cache holds fp homed at
// either of the two given buckets.
func (f *Filter) victimMatches(fp, i1, i2 uint64) bool {
	return f.victim.valid && f.victim.fp == fp &&
		(f.victim.bucket == i1 || f.victim.bucket == i2)
}

// Contains reports whether key's fingerprint is present in either of its
// buckets (or the victim cache).
func (f *Filter) Contains(key uint64) bool {
	i1, fp := f.indexAndFP(key)
	i2 := f.altIndex(i1, fp)
	return f.containsHashed(i1, i2, fp)
}

// containsHashed finishes a lookup whose hash state (both candidate
// buckets and the fingerprint) is already computed.
func (f *Filter) containsHashed(i1, i2, fp uint64) bool {
	for s := 0; s < BucketSize; s++ {
		if f.bucketSlot(i1, s) == fp || f.bucketSlot(i2, s) == fp {
			return true
		}
	}
	return f.victimMatches(fp, i1, i2)
}

// ContainsBatch probes every key (see core.BatchFilter). Both candidate
// bucket indices and the fingerprint are precomputed for a whole chunk
// (hash-once); then bucket 1 is probed for every key in a pure load
// loop — two indexed loads per key off the hoisted backing-words slice,
// no branch or compare in between, so the whole chunk's cache misses
// are in flight at once — a branchless SWAR resolve (swar.MatchNone4)
// compacts the misses arithmetically, and only those go on to a second
// staged load loop for bucket 2. The scalar path instead serializes
// each miss behind the previous key's early-exit branch.
func (f *Filter) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	if 4*f.fpBits > 64 {
		// A bucket no longer fits one 64-bit window; fall back to the
		// slot-by-slot probe (fingerprints this wide are unusual).
		f.containsBatchWide(keys, out)
		return
	}
	mask := uint64(1)<<f.fpBits - 1
	words := f.slots.RawWords()
	bucketBits := uint64(f.fpBits) * BucketSize
	var i1s, i2s, fps, wins [core.BatchChunk]uint64
	var live [core.BatchChunk]uint16
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[start : start+len(chunk)]
		for i, k := range chunk {
			i1, fp := f.indexAndFP(k)
			i1s[i], i2s[i], fps[i] = i1, f.altIndex(i1, fp), fp
		}
		// Round 1: every key probes its first bucket. The window reads
		// get a pure loop of their own — two indexed loads per key off
		// the hoisted words slice, nothing data-dependent in between —
		// so the whole chunk's cache misses are in flight together.
		for i := range chunk {
			bitPos := i1s[i] * bucketBits
			off := bitPos & 63
			wins[i] = words[bitPos>>6]>>off | words[bitPos>>6+1]<<(64-off)
		}
		// Branchless SWAR resolve + survivor compaction out of L1.
		n := 0
		for i := range chunk {
			miss := swar.MatchNone4(wins[i], fps[i], mask, f.fpBits)
			co[i] = miss == 0
			live[n] = uint16(i)
			n += int(miss)
		}
		// Round 2: only round-1 misses probe their second bucket (the
		// scalar path skips it on a bucket-1 hit too, so batching adds
		// no extra memory traffic — it only overlaps the misses).
		for s := 0; s < n; s++ {
			bitPos := i2s[live[s]] * bucketBits
			off := bitPos & 63
			wins[s] = words[bitPos>>6]>>off | words[bitPos>>6+1]<<(64-off)
		}
		for s := 0; s < n; s++ {
			i := live[s]
			co[i] = swar.MatchNone4(wins[s], fps[i], mask, f.fpBits) == 0
		}
		// Victim cache: only consulted for keys both buckets missed.
		if f.victim.valid {
			for s := 0; s < n; s++ {
				i := live[s]
				if !co[i] {
					co[i] = f.victimMatches(fps[i], i1s[i], i2s[i])
				}
			}
		}
	}
}

// containsBatchWide is the ContainsBatch fallback for fingerprints too
// wide to pack a bucket into one 64-bit window.
func (f *Filter) containsBatchWide(keys []uint64, out []bool) {
	var i1s, i2s, fps [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[start : start+len(chunk)]
		for i, k := range chunk {
			i1, fp := f.indexAndFP(k)
			i1s[i], i2s[i], fps[i] = i1, f.altIndex(i1, fp), fp
		}
		for i := range chunk {
			co[i] = f.containsHashed(i1s[i], i2s[i], fps[i])
		}
	}
}

// Delete removes one copy of key's fingerprint. Returns ErrNotFound if
// absent. Deleting a never-inserted key can remove a colliding key's
// fingerprint.
func (f *Filter) Delete(key uint64) error {
	i1, fp := f.indexAndFP(key)
	i2 := f.altIndex(i1, fp)
	for _, b := range [2]uint64{i1, i2} {
		for s := 0; s < BucketSize; s++ {
			if f.bucketSlot(b, s) == fp {
				f.setBucketSlot(b, s, 0)
				f.n--
				f.reseatVictim()
				return nil
			}
		}
	}
	if f.victimMatches(fp, i1, i2) {
		f.victim.valid = false
		f.n--
		return nil
	}
	return core.ErrNotFound
}

// reseatVictim tries to move the cached victim into one of its home
// buckets after a delete freed space.
func (f *Filter) reseatVictim() {
	if !f.victim.valid {
		return
	}
	v := f.victim
	alt := f.altIndex(v.bucket, v.fp)
	if f.tryInsertAt(v.bucket, v.fp) || f.tryInsertAt(alt, v.fp) {
		f.victim.valid = false
	}
}

// Len returns the number of stored fingerprints.
func (f *Filter) Len() int { return f.n }

// LoadFactor returns occupied slots / total slots.
func (f *Filter) LoadFactor() float64 {
	return float64(f.n) / float64(f.numBuckets*BucketSize)
}

// SizeBits returns the table footprint in bits.
func (f *Filter) SizeBits() int { return f.slots.SizeBits() }

var (
	_ core.DeletableFilter = (*Filter)(nil)
	_ core.BatchFilter     = (*Filter)(nil)
)
