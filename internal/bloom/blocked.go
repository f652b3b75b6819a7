package bloom

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

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
	blocks
}

// blocks is the state Blocked and BlockedChoices share — the same
// fields, sized by the same arithmetic and persisted by the same codec.
// The two filters differ only in how a key picks its block.
type blocks struct {
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
	f, err := blockedShape(s)
	if err != nil {
		return nil, err
	}
	f.alloc()
	return f, nil
}

// blockedShape is BlockedFromSpec without the word array.
func blockedShape(s core.Spec) (*Blocked, error) {
	b, err := shapeBlocks(s, core.TypeBlockedBloom, 1)
	if err != nil {
		return nil, err
	}
	return &Blocked{b}, nil
}

// shapeBlocks validates s as the Spec of a blocked filter of type typ
// and derives its geometry — at least minBlocks blocks — leaving the
// word array unallocated: the constructors allocate it, the decoder
// reads it from the payload.
func shapeBlocks(s core.Spec, typ uint16, minBlocks uint64) (blocks, error) {
	if s.Type != typ {
		return blocks{}, fmt.Errorf("bloom: spec type %d is not %d", s.Type, typ)
	}
	if s.N < 1 {
		s.N = 1
	}
	if !(s.BitsPerKey > 0) || s.BitsPerKey > 1024 {
		return blocks{}, fmt.Errorf("bloom: bits per key %v out of range", s.BitsPerKey)
	}
	totalBits := math.Ceil(float64(s.N) * s.BitsPerKey)
	numBlocks := uint64(math.Ceil(totalBits / (blockWords * 64)))
	if numBlocks < minBlocks {
		numBlocks = minBlocks
	}
	k := uint(core.BloomOptimalK(s.BitsPerKey))
	if k > blockedMaxK {
		k = blockedMaxK
	}
	return blocks{spec: s, numBlocks: numBlocks, k: k}, nil
}

// alloc allocates the zeroed word array the geometry calls for.
func (b *blocks) alloc() { b.words = make([]uint64, b.numBlocks*blockWords) }

// Spec returns the filter's construction parameters.
func (b *blocks) Spec() core.Spec { return b.spec }

// K returns the number of probe bits per key.
func (b *blocks) K() uint { return b.k }

// Len returns the number of inserted keys.
func (b *blocks) Len() int { return b.n }

// SizeBits returns the filter's footprint in bits.
func (b *blocks) SizeBits() int { return len(b.words) * 64 }

// FillRatio returns the fraction of set bits (diagnostic).
func (b *blocks) FillRatio() float64 {
	ones := 0
	for _, w := range b.words {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(len(b.words)*64)
}

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
	f.set(f.hashState(key))
	f.n++
	return nil
}

// set sets the k probe bits of the key whose hash state this is.
func (f *Blocked) set(base, g1, g2 uint64) {
	for i := uint(0); i < f.k; i++ {
		pos := probePos(g1, g2, i)
		f.words[base+pos>>6] |= 1 << (pos & 63)
	}
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

// useAVX512 routes Blocked.ContainsBatch and insertStripe through the
// AVX-512 kernels. It is haveAVX512, fixed at init; only tests clear it,
// to force the Go kernels.
var useAVX512 = haveAVX512

// batchMin is the fewest keys the Go batch kernels take. Fewer cost
// less as scalar calls (~35 ns a key) than the kernels' zeroing of their
// 8 KiB of stack arrays (~100 ns a call, even an empty one).
const batchMin = 8

// ContainsBatch probes every key (see core.BatchFilter). On a CPU with
// AVX-512 (haveAVX512) every whole group of 8 keys goes through the
// vector kernel (blocked_amd64.s); the rest goes through containsBatchGo,
// or through Contains when it is fewer than batchMin keys. All three
// give every key exactly Contains's answer.
func (f *Blocked) ContainsBatch(keys []uint64, out []bool) {
	out = out[:len(keys)]
	if n := len(keys) &^ 7; n > 0 && useAVX512 && vectorFits(uint64(len(f.words)), f.numBlocks, f.k) {
		containsBatchAVX512(f.words, keys[:n], out[:n], f.spec.Seed*mixSeedMul, f.numBlocks, f.k)
		keys, out = keys[n:], out[n:]
	}
	if len(keys) >= batchMin {
		f.containsBatchGo(keys, out)
		return
	}
	for i, k := range keys {
		out[i] = f.Contains(k)
	}
}

// GoKernels returns ContainsBatch and InsertBatch as they run on a CPU
// without AVX-512: the portable kernels alone, for every batch length.
// They exist to be measured beside the methods; HasVectorKernels says
// whether the methods take another path here.
func (f *Blocked) GoKernels() (contains func(keys []uint64, out []bool), insert func(keys []uint64)) {
	return f.containsBatchGo, func(keys []uint64) {
		f.insertStripeGo(keys, 0, f.numBlocks)
		f.n += len(keys)
	}
}

// HasVectorKernels reports whether Blocked's batch methods run the
// AVX-512 kernels on this CPU.
func HasVectorKernels() bool { return haveAVX512 }

// vectorFits reports whether the AVX-512 kernels may probe or insert
// into a filter of nWords words, numBlocks blocks and k probes. The
// kernels have no bounds checks. They touch word base+j, j < 8, of
// block Reduce(h, numBlocks) < numBlocks, which lies inside the array
// exactly when nWords is 8·numBlocks; their 32-bit Reduce is exact only
// for numBlocks < 2^32; and they handle 1 to blockedMaxK probes. Every
// constructor and blocks.decode keep all three, so this is an
// assertion, never a filter's fallback.
func vectorFits(nWords, numBlocks uint64, k uint) bool {
	return numBlocks >= 1 && numBlocks < 1<<32 && nWords == numBlocks*blockWords &&
		k >= 1 && k <= blockedMaxK
}

// containsBatchGo is the portable ContainsBatch kernel and the vector
// kernel's reference. Hash state for a chunk is computed up front; a
// pure load loop then fetches every key's first probe word — one load
// per key, no branches between them, so each key's single potential
// cache miss is in flight at once — and a fully branchless resolve loop
// finishes the remaining probes out of the now-warm cache lines, AND-ing
// all k probe bits arithmetically.
// Resolving without an early exit does a few redundant L1 loads for
// keys whose first probe already missed, but removes the 50/50
// data-dependent branch whose mispredictions would flush the very
// pipeline the staged loads are trying to fill.
//
// The hash and load passes stay separate: fusing them measured slower
// at DRAM size, because the load loop is what keeps the misses
// overlapped. The resolve loop is one straight-line body for every k
// (see probeSkip).
func (f *Blocked) containsBatchGo(keys []uint64, out []bool) {
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

// InsertBatch inserts every key (see core.BatchInserter). It is the
// one-stripe case of insertStripe: every block is in the stripe.
func (f *Blocked) InsertBatch(keys []uint64) error {
	f.insertStripe(keys, 0, f.numBlocks)
	f.n += len(keys)
	return nil
}

// fillChunk is how many keys a Fill worker asks gen for at a time.
const fillChunk = 1024

// Fill inserts n keys, gen(at, dst) writing keys at, at+1, ... into
// dst, on runtime.GOMAXPROCS(0) workers. Every worker calls gen for
// every key range, so gen runs on several goroutines at once: it must
// be safe for concurrent use and write the same keys for the same range
// each time. The filter ends up bit-identical to InsertBatch of the
// same n keys.
func (f *Blocked) Fill(n int, gen func(at int, dst []uint64)) {
	f.fill(n, gen, runtime.GOMAXPROCS(0))
}

// fill is Fill on the given number of workers, capped at the block
// count. Each worker owns one contiguous stripe of blocks: it generates
// and hashes every key but sets bits only for the keys whose block lies
// in its stripe. No two workers write the same word, so no word needs
// an atomic; and since OR is commutative, which worker sets which bit
// when does not change a single bit of the result.
func (f *Blocked) fill(n int, gen func(at int, dst []uint64), workers int) {
	w := uint64(max(1, workers))
	if w > f.numBlocks {
		w = f.numBlocks
	}
	// Stripe i is blocks [lo, hi): the first numBlocks%w stripes take
	// one block more than the rest.
	per, extra := f.numBlocks/w, f.numBlocks%w
	var wg sync.WaitGroup
	for i := uint64(0); i < w; i++ {
		lo := i*per + min(i, extra)
		hi := lo + per
		if i < extra {
			hi++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [fillChunk]uint64
			for at := 0; at < n; at += fillChunk {
				keys := buf[:min(fillChunk, n-at)]
				gen(at, keys)
				f.insertStripe(keys, lo, hi)
			}
		}()
	}
	wg.Wait()
	f.n += n
}

// insertStripe inserts the keys whose block lies in [lo, hi) and skips
// the rest. Like ContainsBatch, it sends every whole group of 8 keys
// through the AVX-512 kernel (blocked_amd64.s) on a CPU that has it, and
// the rest through insertStripeGo, or through a scalar loop that keeps
// the stripe test when it is fewer than batchMin keys; all three set
// exactly the bits Insert does.
func (f *Blocked) insertStripe(keys []uint64, lo, hi uint64) {
	if n := len(keys) &^ 7; n > 0 && useAVX512 && vectorFits(uint64(len(f.words)), f.numBlocks, f.k) {
		insertStripeAVX512(f.words, keys[:n], f.spec.Seed*mixSeedMul, f.numBlocks, lo, hi-lo, f.k)
		keys = keys[n:]
	}
	if len(keys) >= batchMin {
		f.insertStripeGo(keys, lo, hi)
		return
	}
	for _, k := range keys {
		if base, g1, g2 := f.hashState(k); base/blockWords-lo < hi-lo {
			f.set(base, g1, g2)
		}
	}
}

// insertStripeGo is the portable insertStripe kernel and the vector
// kernel's reference, in three passes: hash a chunk into stack arrays,
// keeping only the stripe's keys; warm every kept key's block with a
// pure load loop so the chunk's misses overlap; then set all k bits of
// each kept key with one unrolled body.
//
// The set pass ORs into the live words and never writes a staged word
// back: two keys of one chunk can share a word, and a stale staged copy
// would drop the other key's bit — a false negative. The staged word
// only masks probe 0's bit (live ⊇ staged, so m &^ staged sets exactly
// what m does), which is also what keeps the warming loads from being
// dead code.
func (f *Blocked) insertStripeGo(keys []uint64, lo, hi uint64) {
	words := f.words
	seed := f.spec.Seed * mixSeedMul
	numBlocks, span := f.numBlocks, hi-lo
	skip := probeSkip(f.k)
	var bases, g1s, g2s, w0s [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		// Every key is written at slot m, and m advances only past a key
		// of the stripe: a branch-free filter. b-lo < span (the borrow
		// of b-lo-span) is lo <= b < hi. m never exceeds the key's index,
		// so the mask only proves the bound to the compiler.
		m := 0
		for _, k := range chunk {
			h := hashutil.Mix64(k ^ seed)
			b := hashutil.Reduce(h, numBlocks)
			j := m & (core.BatchChunk - 1)
			bases[j] = b * blockWords
			g1s[j] = hashutil.Mix64(h + 1)
			g2s[j] = hashutil.Mix64(h + 2)
			_, in := bits.Sub64(b-lo, span, 0)
			m += int(in)
		}
		for i := range bases[:m] {
			w0s[i] = words[bases[i]+(g1s[i]&511)>>6]
		}
		for i := range bases[:m] {
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

var (
	_ core.MutableFilter = (*Blocked)(nil)
	_ core.BatchFilter   = (*Blocked)(nil)
	_ core.BatchInserter = (*Blocked)(nil)
)
