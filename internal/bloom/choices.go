package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// choiceMix is XOR-ed into the key's mixed hash before deriving the
// second candidate block, making the two block choices independent
// while spending only one extra Mix64 per key.
const choiceMix = 0xC40CE5C40CE50001

// BlockedChoices is a blocked Bloom filter with two block choices
// (after Schmitz, Hübschle-Schneider & Sanders, "Blocked Bloom
// Filters with Choices"): every key hashes to two candidate 512-bit
// blocks, Insert sets its k bits in whichever candidate ends up
// emptier, and Contains accepts if either candidate holds all k. The
// power of two choices flattens the balls-into-bins load skew that
// makes plain blocked filters lose bits/key to overfull blocks.
//
// Know the trade before choosing this variant: because a lookup ORs
// two blocks, its false-positive rate is bounded below by roughly
// twice the per-block rate, so at moderate budgets (8-16 bits/key,
// where a plain 512-bit blocked filter is only 10-30% worse than
// classic) plain Blocked has strictly lower FPR. The choice pays off
// where the blocking penalty itself explodes — high bits/key budgets
// (≳20, where plain blocked is several times worse than classic and
// balancing recovers more than the second probe costs) or workloads
// with adversarially skewed block loads. E20 charts the exact
// frontier. The query price of the second cache line is hidden by the
// batch kernel, which issues both lines' loads back to back in its
// pure load loop, so a batched lookup costs nearly the same
// wall-clock as one miss.
type BlockedChoices struct {
	spec      core.Spec
	words     []uint64
	numBlocks uint64
	k         uint
	n         int
}

// NewBlockedChoices returns a two-choice blocked Bloom filter sized
// for n keys at the given bits-per-key budget.
func NewBlockedChoices(n int, bitsPerKey float64) *BlockedChoices {
	return NewBlockedChoicesSeeded(n, bitsPerKey, 0xB10CB10000000002)
}

// NewBlockedChoicesSeeded is NewBlockedChoices with an explicit hash
// seed.
func NewBlockedChoicesSeeded(n int, bitsPerKey float64, seed uint64) *BlockedChoices {
	f, err := BlockedChoicesFromSpec(core.Spec{Type: core.TypeBlockedChoices, N: n, BitsPerKey: bitsPerKey, Seed: seed})
	if err != nil {
		panic(err) // unreachable for the budgets the constructors pass
	}
	return f
}

// BlockedChoicesFromSpec builds an empty two-choice blocked Bloom
// filter from its construction parameters (see bloom.FromSpec).
func BlockedChoicesFromSpec(s core.Spec) (*BlockedChoices, error) {
	if s.Type != core.TypeBlockedChoices {
		return nil, fmt.Errorf("bloom: spec type %d is not TypeBlockedChoices", s.Type)
	}
	if s.N < 1 {
		s.N = 1
	}
	if !(s.BitsPerKey > 0) || s.BitsPerKey > 1024 {
		return nil, fmt.Errorf("bloom: bits per key %v out of range", s.BitsPerKey)
	}
	totalBits := math.Ceil(float64(s.N) * s.BitsPerKey)
	numBlocks := uint64(math.Ceil(totalBits / (blockWords * 64)))
	// Two distinct candidates need two blocks to choose between.
	if numBlocks < 2 {
		numBlocks = 2
	}
	k := uint(core.BloomOptimalK(s.BitsPerKey))
	if k > blockedMaxK {
		k = blockedMaxK
	}
	return &BlockedChoices{
		spec:      s,
		words:     make([]uint64, numBlocks*blockWords),
		numBlocks: numBlocks,
		k:         k,
	}, nil
}

// Spec returns the filter's construction parameters.
func (f *BlockedChoices) Spec() core.Spec { return f.spec }

// K returns the number of probe bits per key.
func (f *BlockedChoices) K() uint { return f.k }

// hashState derives both candidate blocks' base word indexes and the
// two mixed words the probe positions are cut from. The k probe
// positions are shared between the candidates (the choice picks a
// block, not a new probe pattern), exactly as in the register-blocked
// reference design.
func (f *BlockedChoices) hashState(key uint64) (base1, base2 uint64, g1, g2 uint64) {
	h := hashutil.MixSeed(key, f.spec.Seed)
	base1 = hashutil.Reduce(h, f.numBlocks) * blockWords
	base2 = hashutil.Reduce(hashutil.Mix64(h^choiceMix), f.numBlocks) * blockWords
	g1 = hashutil.Mix64(h + 1)
	g2 = hashutil.Mix64(h + 2)
	return
}

// blockLoad returns the number of set bits in the 8-word block at
// base. Counting on the fly keeps the choice exact under deletes-free
// churn without any side array of per-block counters.
func (f *BlockedChoices) blockLoad(base uint64) int {
	blk := f.words[base : base+blockWords : base+blockWords]
	c := 0
	for _, w := range blk {
		c += bits.OnesCount64(w)
	}
	return c
}

// newBits returns how many of the key's k probe bits are not yet set
// in the block at base — the number of ones this insert would add.
func (f *BlockedChoices) newBits(base uint64, g1, g2 uint64) int {
	c := 0
	for i := uint(0); i < f.k; i++ {
		pos := probePos(g1, g2, i)
		c += int(^f.words[base+pos>>6] >> (pos & 63) & 1)
	}
	return c
}

// Insert adds key, setting its k bits in whichever candidate block
// would be emptier AFTER the insert (current popcount plus the new
// bits this key would add; ties go to the first block). Judging the
// post-insert load rather than the current one folds in bit reuse —
// a candidate that already holds most of the key's probe bits is
// nearly free to use — and measures strictly better than the plain
// current-load rule at every bits/key budget we chart in E20. Insert
// never fails; over-inserting degrades the false-positive rate
// gracefully.
func (f *BlockedChoices) Insert(key uint64) error {
	base1, base2, g1, g2 := f.hashState(key)
	base := base1
	if f.blockLoad(base2)+f.newBits(base2, g1, g2) < f.blockLoad(base1)+f.newBits(base1, g1, g2) {
		base = base2
	}
	for i := uint(0); i < f.k; i++ {
		pos := probePos(g1, g2, i)
		f.words[base+pos>>6] |= 1 << (pos & 63)
	}
	f.n++
	return nil
}

// blockHas reports whether the block at base holds all k probe bits.
func (f *BlockedChoices) blockHas(base uint64, g1, g2 uint64) bool {
	for i := uint(0); i < f.k; i++ {
		pos := probePos(g1, g2, i)
		if f.words[base+pos>>6]>>(pos&63)&1 == 0 {
			return false
		}
	}
	return true
}

// Contains reports whether key may have been inserted: present iff
// either candidate block holds all k probe bits.
func (f *BlockedChoices) Contains(key uint64) bool {
	base1, base2, g1, g2 := f.hashState(key)
	return f.blockHas(base1, g1, g2) || f.blockHas(base2, g1, g2)
}

// ContainsBatch probes every key (see core.BatchFilter). The structure
// mirrors Blocked.ContainsBatch with one twist: the pure load loop
// issues BOTH candidate blocks' first probe words back to back, so the
// two cache misses a two-choice lookup risks are both in flight
// before any key resolves — the memory-level-parallelism window covers
// 2×BatchChunk lines instead of serializing choice two behind choice
// one. The resolve loop then finishes both candidates with Blocked's
// straight-line skip-mask body and ORs the verdicts.
func (f *BlockedChoices) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	words := f.words
	seed := f.spec.Seed * mixSeedMul
	numBlocks := f.numBlocks
	skip := probeSkip(f.k)
	var b1s, b2s, g1s, g2s, w1s, w2s [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[start : start+len(chunk)]
		for i, key := range chunk {
			h := hashutil.Mix64(key ^ seed)
			b1s[i] = hashutil.Reduce(h, numBlocks) * blockWords
			b2s[i] = hashutil.Reduce(hashutil.Mix64(h^choiceMix), numBlocks) * blockWords
			g1s[i] = hashutil.Mix64(h + 1)
			g2s[i] = hashutil.Mix64(h + 2)
		}
		for i := range chunk {
			off := (g1s[i] & 511) >> 6
			w1s[i] = words[b1s[i]+off]
			w2s[i] = words[b2s[i]+off]
		}
		for i := range chunk {
			g1, g2 := g1s[i], g2s[i]
			blk1 := (*[blockWords]uint64)(words[b1s[i]:])
			blk2 := (*[blockWords]uint64)(words[b2s[i]:])
			hit1 := w1s[i] >> (g1 & 63) &
				(blk1[g1>>15&7]>>(g1>>9&63) | skip[1]) &
				(blk1[g1>>24&7]>>(g1>>18&63) | skip[2]) &
				(blk1[g1>>33&7]>>(g1>>27&63) | skip[3]) &
				(blk1[g1>>42&7]>>(g1>>36&63) | skip[4]) &
				(blk1[g1>>51&7]>>(g1>>45&63) | skip[5]) &
				(blk1[g1>>60&7]>>(g1>>54&63) | skip[6]) &
				(blk1[g2>>6&7]>>(g2&63) | skip[7])
			hit2 := w2s[i] >> (g1 & 63) &
				(blk2[g1>>15&7]>>(g1>>9&63) | skip[1]) &
				(blk2[g1>>24&7]>>(g1>>18&63) | skip[2]) &
				(blk2[g1>>33&7]>>(g1>>27&63) | skip[3]) &
				(blk2[g1>>42&7]>>(g1>>36&63) | skip[4]) &
				(blk2[g1>>51&7]>>(g1>>45&63) | skip[5]) &
				(blk2[g1>>60&7]>>(g1>>54&63) | skip[6]) &
				(blk2[g2>>6&7]>>(g2&63) | skip[7])
			co[i] = (hit1|hit2)&1 != 0
		}
	}
}

// Len returns the number of inserted keys.
func (f *BlockedChoices) Len() int { return f.n }

// SizeBits returns the filter's footprint in bits.
func (f *BlockedChoices) SizeBits() int { return len(f.words) * 64 }

// FillRatio returns the fraction of set bits (diagnostic).
func (f *BlockedChoices) FillRatio() float64 {
	ones := 0
	for _, w := range f.words {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(len(f.words)*64)
}

var (
	_ core.MutableFilter = (*BlockedChoices)(nil)
	_ core.BatchFilter   = (*BlockedChoices)(nil)
)
