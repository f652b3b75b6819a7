package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// blockWords is the size of one probe block in 64-bit words: 8 words =
// 512 bits = one cache line on every mainstream CPU.
const blockWords = 8

// blockedMaxK caps the hash functions of a blocked filter. All probes
// share one 512-bit block, so beyond ~8 probes the marginal FPR gain is
// eaten by intra-block collisions — and 8 probes consume the 72 hash
// bits two mixes provide (9 bits each to address 512 positions).
const blockedMaxK = 8

// mixSeedMul is hashutil.MixSeed's seed multiplier, so the batch
// kernels can hoist seed*mixSeedMul out of their hash loops; the
// batch ≡ scalar tests pin the two together.
const mixSeedMul = 0xA24BAED4963EE407

// Blocked is a cache-line-blocked Bloom filter (Putze, Sanders &
// Singler): one hash picks a 512-bit block and all k probe bits land
// inside it, so a negative lookup costs one cache miss instead of up to
// k. The price is a slightly higher false-positive rate than a classic
// Bloom filter at equal bits/key, because keys are balls-into-bins
// distributed over blocks and the occasional overfull block saturates
// locally (≈0.5-1 extra bit/key to match a classic filter's ε; see
// DESIGN.md).
type Blocked struct {
	spec      core.Spec // construction parameters (capacity, bits/key, seed)
	words     []uint64
	numBlocks uint64
	k         uint
	n         int
}

// BlockedSeed is the hash seed NewBlocked uses. Callers that build
// through BlockedFromSpec (to get an error instead of a panic for a bad
// budget) pass it to get the same filter.
const BlockedSeed = 0xB10CB10000000001

// NewBlocked returns a blocked Bloom filter sized for n keys at the
// given bits-per-key budget.
func NewBlocked(n int, bitsPerKey float64) *Blocked {
	return NewBlockedSeeded(n, bitsPerKey, BlockedSeed)
}

// NewBlockedSeeded is NewBlocked with an explicit hash seed (see
// NewBitsSeeded for when layered structures need distinct seeds).
func NewBlockedSeeded(n int, bitsPerKey float64, seed uint64) *Blocked {
	f, err := BlockedFromSpec(core.Spec{Type: core.TypeBlockedBloom, N: n, BitsPerKey: bitsPerKey, Seed: seed})
	if err != nil {
		panic(err) // unreachable for the budgets the constructors pass
	}
	return f
}

// BlockedFromSpec builds an empty blocked Bloom filter from its
// construction parameters (see bloom.FromSpec).
func BlockedFromSpec(s core.Spec) (*Blocked, error) {
	if s.Type != core.TypeBlockedBloom {
		return nil, fmt.Errorf("bloom: spec type %d is not TypeBlockedBloom", s.Type)
	}
	if s.N < 1 {
		s.N = 1
	}
	if !(s.BitsPerKey > 0) || s.BitsPerKey > 1024 {
		return nil, fmt.Errorf("bloom: bits per key %v out of range", s.BitsPerKey)
	}
	totalBits := math.Ceil(float64(s.N) * s.BitsPerKey)
	numBlocks := uint64(math.Ceil(totalBits / (blockWords * 64)))
	if numBlocks < 1 {
		numBlocks = 1
	}
	k := uint(core.BloomOptimalK(s.BitsPerKey))
	if k > blockedMaxK {
		k = blockedMaxK
	}
	return &Blocked{
		spec:      s,
		words:     make([]uint64, numBlocks*blockWords),
		numBlocks: numBlocks,
		k:         k,
	}, nil
}

// Spec returns the filter's construction parameters.
func (f *Blocked) Spec() core.Spec { return f.spec }

// K returns the number of probe bits per key.
func (f *Blocked) K() uint { return f.k }

// hashState derives the block's base word index and the two mixed words
// the probe positions are cut from: probe i takes 9 bits (a position in
// [0,512)) from g1 for i < 7 and from g2 beyond.
func (f *Blocked) hashState(key uint64) (base uint64, g1, g2 uint64) {
	h := hashutil.MixSeed(key, f.spec.Seed)
	base = hashutil.Reduce(h, f.numBlocks) * blockWords
	g1 = hashutil.Mix64(h + 1)
	g2 = hashutil.Mix64(h + 2)
	return
}

// probePos returns probe i's bit position within the block.
func probePos(g1, g2 uint64, i uint) uint64 {
	if i < 7 {
		return g1 >> (9 * i) & 511
	}
	return g2 >> (9 * (i - 7)) & 511
}

// Insert adds key. It never fails; over-inserting degrades the
// false-positive rate like a classic Bloom filter, only block-locally.
func (f *Blocked) Insert(key uint64) error {
	base, g1, g2 := f.hashState(key)
	for i := uint(0); i < f.k; i++ {
		pos := probePos(g1, g2, i)
		f.words[base+pos>>6] |= 1 << (pos & 63)
	}
	f.n++
	return nil
}

// Contains reports whether key may have been inserted.
func (f *Blocked) Contains(key uint64) bool {
	base, g1, g2 := f.hashState(key)
	for i := uint(0); i < f.k; i++ {
		pos := probePos(g1, g2, i)
		if f.words[base+pos>>6]>>(pos&63)&1 == 0 {
			return false
		}
	}
	return true
}

// ContainsBatch probes every key (see core.BatchFilter). Hash state for
// a chunk is computed up front; a pure load loop then fetches every
// key's first probe word — one load per key, no branches between them,
// so each key's single potential cache miss is in flight at once — and
// a fully branchless resolve loop finishes the remaining probes out of
// the now-warm cache lines, AND-ing all k probe bits arithmetically.
// Resolving without an early exit does a few redundant L1 loads for
// keys whose first probe already missed, but removes the 50/50
// data-dependent branch whose mispredictions would flush the very
// pipeline the staged loads are trying to fill.
//
// The hash and load passes stay separate: fusing them measured slower
// at DRAM size, because the load loop is what keeps the misses
// overlapped. The resolve loop is one straight-line body for every k
// (see probeSkip).
func (f *Blocked) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	words := f.words
	seed := f.spec.Seed * mixSeedMul
	numBlocks := f.numBlocks
	skip := probeSkip(f.k)
	var bases, g1s, g2s, w0s [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[start : start+len(chunk)]
		for i, k := range chunk {
			h := hashutil.Mix64(k ^ seed)
			bases[i] = hashutil.Reduce(h, numBlocks) * blockWords
			g1s[i] = hashutil.Mix64(h + 1)
			g2s[i] = hashutil.Mix64(h + 2)
		}
		for i := range chunk {
			w0s[i] = words[bases[i]+(g1s[i]&511)>>6]
		}
		for i := range chunk {
			g1, g2 := g1s[i], g2s[i]
			// Probe 0 is the staged word; probe i < 7 reads word
			// (g1>>(9i+6))&7, bit (g1>>9i)&63, and probe 7 reads word
			// (g2>>6)&7, bit g2&63 — probePos's positions, cut with
			// constant shifts. An 8-word array needs no bounds checks.
			// The body is written inline here and in BlockedChoices: as
			// a function it is over the inlining budget, and the call
			// measured ~20 % slower at cache-resident size.
			blk := (*[blockWords]uint64)(words[bases[i]:])
			hit := w0s[i] >> (g1 & 63) &
				(blk[g1>>15&7]>>(g1>>9&63) | skip[1]) &
				(blk[g1>>24&7]>>(g1>>18&63) | skip[2]) &
				(blk[g1>>33&7]>>(g1>>27&63) | skip[3]) &
				(blk[g1>>42&7]>>(g1>>36&63) | skip[4]) &
				(blk[g1>>51&7]>>(g1>>45&63) | skip[5]) &
				(blk[g1>>60&7]>>(g1>>54&63) | skip[6]) &
				(blk[g2>>6&7]>>(g2&63) | skip[7])
			co[i] = hit&1 != 0
		}
	}
}

// InsertBatch inserts every key (see core.BatchInserter) in the three
// passes of ContainsBatch: hash a chunk into stack arrays, warm every
// key's block with a pure load loop so the chunk's misses overlap, then
// set all k bits of each key with one unrolled body.
//
// The set pass ORs into the live words and never writes a staged word
// back: two keys of one chunk can share a word, and a stale staged copy
// would drop the other key's bit — a false negative. The staged word
// only masks probe 0's bit (live ⊇ staged, so m &^ staged sets exactly
// what m does), which is also what keeps the warming loads from being
// dead code.
func (f *Blocked) InsertBatch(keys []uint64) error {
	words := f.words
	seed := f.spec.Seed * mixSeedMul
	numBlocks := f.numBlocks
	skip := probeSkip(f.k)
	var bases, g1s, g2s, w0s [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		for i, k := range chunk {
			h := hashutil.Mix64(k ^ seed)
			bases[i] = hashutil.Reduce(h, numBlocks) * blockWords
			g1s[i] = hashutil.Mix64(h + 1)
			g2s[i] = hashutil.Mix64(h + 2)
		}
		for i := range chunk {
			w0s[i] = words[bases[i]+(g1s[i]&511)>>6]
		}
		for i := range chunk {
			// ContainsBatch's positions, with probe j >= k's bit masked
			// to zero by skip[j]; see the comment there on why the body
			// is inline.
			g1, g2 := g1s[i], g2s[i]
			blk := (*[blockWords]uint64)(words[bases[i]:])
			blk[g1>>6&7] |= 1 << (g1 & 63) &^ w0s[i]
			blk[g1>>15&7] |= 1 << (g1 >> 9 & 63) &^ skip[1]
			blk[g1>>24&7] |= 1 << (g1 >> 18 & 63) &^ skip[2]
			blk[g1>>33&7] |= 1 << (g1 >> 27 & 63) &^ skip[3]
			blk[g1>>42&7] |= 1 << (g1 >> 36 & 63) &^ skip[4]
			blk[g1>>51&7] |= 1 << (g1 >> 45 & 63) &^ skip[5]
			blk[g1>>60&7] |= 1 << (g1 >> 54 & 63) &^ skip[6]
			blk[g2>>6&7] |= 1 << (g2 & 63) &^ skip[7]
		}
	}
	f.n += len(keys)
	return nil
}

// probeSkip returns the resolve body's per-probe masks: all ones for
// every probe j >= k, so OR-ing it into that probe's term makes the
// term a no-op and one unrolled body serves every k <= blockedMaxK.
// InsertBatch clears the same probes' bits with it instead.
func probeSkip(k uint) (skip [blockedMaxK]uint64) {
	for j := k; j < blockedMaxK; j++ {
		skip[j] = ^uint64(0)
	}
	return skip
}

// Len returns the number of inserted keys.
func (f *Blocked) Len() int { return f.n }

// SizeBits returns the filter's footprint in bits.
func (f *Blocked) SizeBits() int { return len(f.words) * 64 }

// FillRatio returns the fraction of set bits (diagnostic).
func (f *Blocked) FillRatio() float64 {
	ones := 0
	for _, w := range f.words {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(len(f.words)*64)
}

var (
	_ core.MutableFilter = (*Blocked)(nil)
	_ core.BatchFilter   = (*Blocked)(nil)
	_ core.BatchInserter = (*Blocked)(nil)
)
