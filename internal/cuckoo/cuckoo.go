// Package cuckoo implements the cuckoo family of the tutorial on one
// bucketed table: the cuckoo filter (Fan et al., §2.1), a dynamic
// approximate set storing f-bit fingerprints in a 4-way associative
// table; the adaptive cuckoo filter (Mitzenmacher et al., §2.3), whose
// slots carry a selector that a false positive advances; the cuckoo
// maplet (§2.4), which stores a value next to each fingerprint; and the
// chained (dynamic) cuckoo filter (§2.2).
//
// Each key has two candidate buckets related by the partial-key XOR
// trick, so an entry can be relocated ("kicked") without its key. The
// shared table owns the slots, the eviction walk and a small stash; each
// structure owns only its hash, its slot word and its queries. The
// overflow rule is the same for all: an insert returns ErrFull exactly
// when it stored nothing, and a walk that fails parks its homeless
// entry in the stash instead of dropping it.
package cuckoo

import (
	"fmt"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/swar"
)

// Filter is a cuckoo filter over uint64 keys. Its slot word is the
// fingerprint, and its stash is the reference implementation's one-entry
// victim cache, which the frame stores.
type Filter struct {
	table
	spec   core.Spec // construction parameters (capacity, fp bits, seed)
	fpBits uint
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
	f.alloc(f.fpBits, false)
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
	if s.N < 0 || int64(s.N) > 1<<40 {
		return nil, fmt.Errorf("cuckoo: capacity %d out of range", s.N)
	}
	return &Filter{
		table:  newTable(s.N, 0xDEADBEEF12345678, 1, wordTag(0)),
		spec:   s,
		fpBits: uint(s.FPBits),
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

// Insert adds key. Duplicates are allowed (each occupies a slot) up to
// 2·BucketSize copies of one fingerprint. Returns ErrFull, storing
// nothing, once a failed eviction walk (near 95% occupancy) has filled
// the victim cache.
func (f *Filter) Insert(key uint64) error {
	i1, fp := f.indexAndFP(key)
	return f.insert(i1, f.other(i1, fp), entry{word: fp})
}

// Contains reports whether key's fingerprint is present in either of its
// buckets (or the victim cache).
func (f *Filter) Contains(key uint64) bool {
	i1, fp := f.indexAndFP(key)
	return f.containsHashed(i1, f.other(i1, fp), fp)
}

// containsHashed finishes a lookup whose hash state (both candidate
// buckets and the fingerprint) is already computed.
func (f *Filter) containsHashed(i1, i2, fp uint64) bool {
	for s := 0; s < BucketSize; s++ {
		if f.slots.Get(int(i1)*BucketSize+s) == fp || f.slots.Get(int(i2)*BucketSize+s) == fp {
			return true
		}
	}
	return f.parkedWord(i1, i2, fp)
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
			i1s[i], i2s[i], fps[i] = i1, f.other(i1, fp), fp
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
		if len(f.stash) > 0 {
			for s := 0; s < n; s++ {
				i := live[s]
				if !co[i] {
					co[i] = f.parkedWord(i1s[i], i2s[i], fps[i])
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
			i1s[i], i2s[i], fps[i] = i1, f.other(i1, fp), fp
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
	return f.remove(i1, f.other(i1, fp), func(e entry) bool { return e.word == fp })
}

// LoadFactor returns occupied slots / total slots.
func (f *Filter) LoadFactor() float64 {
	return float64(f.n) / float64(f.numBuckets*BucketSize)
}

var (
	_ core.DeletableFilter = (*Filter)(nil)
	_ core.BatchFilter     = (*Filter)(nil)
)
