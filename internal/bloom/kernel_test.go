package bloom

import (
	"fmt"
	"math/bits"
	"testing"

	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/workload"
)

// batchKernels names Blocked.ContainsBatch's two kernels by the value
// of the useAVX512 switch that selects them.
var batchKernels = []struct {
	name string
	avx  bool
}{{"go", false}, {"avx512", true}}

// forceKernel sets the useAVX512 switch for the rest of tb, skipping tb
// when the AVX-512 kernel is asked for on a CPU without it.
func forceKernel(tb testing.TB, avx bool) {
	tb.Helper()
	if avx && !haveAVX512 {
		tb.Skip("no AVX-512F/DQ + BMI2 on this CPU (or the OS does not save ZMM state): the Go kernel is the only one")
	}
	old := useAVX512
	useAVX512 = avx
	tb.Cleanup(func() { useAVX512 = old })
}

// containsBatchWith is f.ContainsBatch with the kernel switch set to
// avx for the one call.
func containsBatchWith(f *Blocked, avx bool, keys []uint64, out []bool) {
	defer func(old bool) { useAVX512 = old }(useAVX512)
	useAVX512 = avx
	f.ContainsBatch(keys, out)
}

// TestBlockedContainsBatchKernels checks each ContainsBatch kernel
// against scalar Contains at every k from 1 to blockedMaxK (bits/key 1
// to 16), on a cache-resident 2^14-key filter and a 2^22-key one whose
// block count has high bits for the vector Reduce to get right. Batch
// lengths cover every tail around the 8-key vector group, both sides of
// a 256-key chunk and the served 4096-key frame, on sub-slices of keys
// and out that start off the slices' alignment; out outside the batch
// must stay untouched, and neither kernel may allocate. The go subtest
// calls containsBatchGo itself as well as ContainsBatch, which hands
// fewer than batchMin keys to Contains instead.
func TestBlockedContainsBatchKernels(t *testing.T) {
	lengths := []int{255, 256, 257, 4096}
	for m := 0; m <= 17; m++ {
		lengths = append(lengths, m)
	}
	for _, n := range []int{1 << 14, 1 << 22} {
		inserted := workload.Keys(n, 11)
		absent := workload.DisjointKeys(4096+8, 11)
		probe := make([]uint64, 0, 2*len(absent))
		for i, k := range absent {
			probe = append(probe, inserted[i*(n/len(absent))], k)
		}
		seen := map[uint]bool{}
		for bpk := 1; bpk <= 16; bpk++ {
			f := NewBlocked(n, float64(bpk))
			f.InsertBatch(inserted)
			seen[f.K()] = true
			want := make([]bool, len(probe))
			for i, k := range probe {
				want[i] = f.Contains(k)
			}
			for _, kern := range batchKernels {
				t.Run(fmt.Sprintf("n=%d/bits=%d/kernel=%s", n, bpk, kern.name), func(t *testing.T) {
					forceKernel(t, kern.avx)
					batches := []func([]uint64, []bool){f.ContainsBatch}
					if !kern.avx {
						batches = append(batches, f.containsBatchGo)
					}
					out := make([]bool, len(probe)+16)
					for _, m := range lengths {
						for _, off := range [][2]int{{0, 0}, {1, 3}, {7, 5}} {
							for _, batch := range batches {
								keys := probe[off[0] : off[0]+m]
								for i := range out {
									out[i] = i%3 == 0
								}
								batch(keys, out[off[1]:])
								for i, got := range out {
									j := i - off[1]
									switch {
									case j >= 0 && j < m && got != want[off[0]+j]:
										t.Fatalf("len %d, offsets %v: out[%d] = %v, Contains %v", m, off, j, got, want[off[0]+j])
									case (j < 0 || j >= m) && got != (i%3 == 0):
										t.Fatalf("len %d, offsets %v: wrote out[%d], outside the batch", m, off, j)
									}
								}
							}
						}
					}
					for _, batch := range batches {
						if avg := testing.AllocsPerRun(20, func() {
							batch(probe[1:4097], out[3:])
						}); avg != 0 {
							t.Fatalf("ContainsBatch allocates %v per run, want 0", avg)
						}
					}
				})
			}
		}
		for k := uint(1); k <= blockedMaxK; k++ {
			if !seen[k] {
				t.Fatalf("n=%d: no budget exercised k=%d", n, k)
			}
		}
	}
}

// insertStripeWith is f.insertStripe with the kernel switch set to avx
// for the one call.
func insertStripeWith(f *Blocked, avx bool, keys []uint64, lo, hi uint64) {
	defer func(old bool) { useAVX512 = old }(useAVX512)
	useAVX512 = avx
	f.insertStripe(keys, lo, hi)
}

// TestBlockedInsertKernels checks each insert kernel against scalar
// Insert at every k from 1 to blockedMaxK (bits/key 1 to 16), on the
// filter sizes of TestBlockedContainsBatchKernels. InsertBatch takes one
// key set in batches of every length around the 8-key vector group,
// both sides of a 256-key chunk and the served 4096-key frame; after
// each length the keys' blocks must hold exactly the scalar filter's
// words, and are then cleared. Stripes that are empty, one block, a
// third of the filter (the thirds differ in size) or the whole filter
// must set the scalar words of their own blocks and leave every other
// block zero. A word still set at the end was written outside every
// key's block. Neither kernel may allocate. The go subtest calls
// insertStripeGo itself as well as insertStripe, which hands fewer than
// batchMin keys to a scalar loop instead.
func TestBlockedInsertKernels(t *testing.T) {
	lengths := []int{255, 256, 257, 4096}
	for m := 0; m <= 17; m++ {
		lengths = append(lengths, m)
	}
	keys := workload.Keys(4096+13, 21)
	for _, n := range []int{1 << 14, 1 << 22} {
		for bpk := 1; bpk <= 16; bpk++ {
			scalar := NewBlocked(n, float64(bpk))
			for _, k := range keys {
				scalar.Insert(k)
			}
			bases := make([]uint64, len(keys))
			for i, k := range keys {
				bases[i], _, _ = scalar.hashState(k)
			}
			nb, third := scalar.numBlocks, scalar.numBlocks/3
			stripes := [][2]uint64{
				{0, 0}, {nb / 2, nb / 2}, {nb, nb}, // empty
				{bases[0] / blockWords, bases[0]/blockWords + 1}, // one block, holding key 0
				{0, third}, {third, 2*third + 1}, {2*third + 1, nb}, // uneven thirds
				{0, nb}, // the whole filter
			}
			for _, kern := range batchKernels {
				t.Run(fmt.Sprintf("n=%d/bits=%d/kernel=%s", n, bpk, kern.name), func(t *testing.T) {
					forceKernel(t, kern.avx)
					f := NewBlocked(n, float64(bpk))
					// check compares every key's block with the scalar
					// filter's, or with zero outside [lo, hi), then clears it.
					check := func(lo, hi uint64, ctx string) {
						t.Helper()
						for i, b := range bases {
							in := b/blockWords-lo < hi-lo
							for j := b; j < b+blockWords; j++ {
								want := scalar.words[j]
								if !in {
									want = 0
								}
								if f.words[j] != want {
									t.Fatalf("%s: key %d's block %d, word %d = %#x, Insert %#x", ctx, i, b/blockWords, j-b, f.words[j], want)
								}
							}
						}
						for _, b := range bases {
							clear(f.words[b : b+blockWords])
						}
					}
					inserts := []func([]uint64, uint64, uint64){f.insertStripe}
					if !kern.avx {
						inserts = append(inserts, f.insertStripeGo)
					}
					for _, insert := range inserts {
						for _, m := range lengths {
							if m == 0 {
								insert(keys[:0], 0, nb)
								continue
							}
							for at := 0; at < len(keys); at += m {
								insert(keys[at:min(at+m, len(keys))], 0, nb)
							}
							check(0, nb, fmt.Sprintf("batch length %d", m))
						}
						for _, s := range stripes {
							insert(keys, s[0], s[1])
							check(s[0], s[1], fmt.Sprintf("stripe [%d, %d) of %d blocks", s[0], s[1], nb))
						}
					}
					for j, w := range f.words {
						if w != 0 {
							t.Fatalf("word %d = %#x: a kernel wrote outside every key's block", j, w)
						}
					}
					for _, insert := range inserts {
						if avg := testing.AllocsPerRun(20, func() {
							insert(keys[1:4097], 0, nb)
						}); avg != 0 {
							t.Fatalf("InsertBatch allocates %v per run, want 0", avg)
						}
					}
					for _, m := range []int{0, 3, 300} {
						before := f.Len()
						f.InsertBatch(keys[:m])
						if f.Len() != before+m {
							t.Fatalf("InsertBatch of %d keys: Len %d -> %d", m, before, f.Len())
						}
					}
				})
			}
		}
	}
}

// TestBlockedAVX512ReduceWideFilters checks the vector kernels' 32-bit
// Reduce identity, and the insert kernel's stripe compare, at block
// counts up to 2^32-1 without allocating such a filter: every key is
// built (through Unmix64) to hash into the first 2^12 blocks, the only
// ones the word array holds, so every kernel stays inside it and each
// pair must agree.
func TestBlockedAVX512ReduceWideFilters(t *testing.T) {
	forceKernel(t, true)
	const held = 1 << 12 // blocks the word array holds
	words := make([]uint64, held*blockWords)
	for i := range words {
		words[i] = hashutil.Mix64(uint64(i)) | hashutil.Mix64(uint64(i)+1<<40) // ~3/4 of bits set
	}
	goWords, avxWords := make([]uint64, len(words)), make([]uint64, len(words))
	for _, numBlocks := range []uint64{held, 1 << 20, 3_000_000_017, 1<<31 + 7, 1<<32 - 1} {
		for k := uint(1); k <= blockedMaxK; k++ {
			f := &Blocked{blocks{words: words, numBlocks: numBlocks, k: k}}
			f.spec.Seed = BlockedSeed
			// h < 2^(64+12-L), numBlocks <= 2^L, keeps Reduce(h,
			// numBlocks) = h·numBlocks >> 64 below 2^12 = held.
			shift := max(0, bits.Len64(numBlocks-1)-12)
			keys, keyBlocks := make([]uint64, 4096), make([]uint64, 4096)
			for i := range keys {
				h := hashutil.Mix64(uint64(i)) >> shift
				keys[i] = hashutil.Unmix64(h) ^ f.spec.Seed*mixSeedMul
				if keyBlocks[i] = hashutil.Reduce(hashutil.MixSeed(keys[i], f.spec.Seed), numBlocks); keyBlocks[i] >= held {
					t.Fatalf("numBlocks %d: key %d lands in block %d", numBlocks, i, keyBlocks[i])
				}
			}
			want := make([]bool, len(keys))
			f.containsBatchGo(keys, want)
			got := make([]bool, len(keys))
			containsBatchAVX512(words, keys, got, f.spec.Seed*mixSeedMul, numBlocks, k)
			hits := 0
			for i := range keys {
				if got[i] != want[i] {
					t.Fatalf("numBlocks %d k=%d: key %d: avx512 %v, go %v", numBlocks, k, i, got[i], want[i])
				}
				if got[i] {
					hits++
				}
			}
			if hits == 0 || hits == len(keys) {
				t.Fatalf("numBlocks %d k=%d: %d of %d hits; the check cannot tell kernels apart", numBlocks, k, hits, len(keys))
			}
			// The insert kernel's stripe compare, base - lo·8 < span·8,
			// on the same keys: the whole filter, its first held
			// blocks, a stripe from inside the held blocks to the end,
			// and stripes past every held block.
			for _, s := range [][2]uint64{{0, numBlocks}, {0, held / 3}, {held / 3, numBlocks}, {held, numBlocks}, {numBlocks - 1, numBlocks}} {
				clear(goWords)
				clear(avxWords)
				g := &Blocked{blocks{words: goWords, numBlocks: numBlocks, k: k}}
				g.spec.Seed = f.spec.Seed
				g.insertStripeGo(keys, s[0], s[1])
				insertStripeAVX512(avxWords, keys, f.spec.Seed*mixSeedMul, numBlocks, s[0], s[1]-s[0], k)
				set, kept := 0, 0
				for j := range goWords {
					if avxWords[j] != goWords[j] {
						t.Fatalf("numBlocks %d k=%d, stripe %v: word %d: avx512 %#x, go %#x", numBlocks, k, s, j, avxWords[j], goWords[j])
					}
					set += bits.OnesCount64(goWords[j])
				}
				for _, b := range keyBlocks {
					if b-s[0] < s[1]-s[0] {
						kept++
					}
				}
				if (set == 0) != (kept == 0) {
					t.Fatalf("numBlocks %d k=%d, stripe %v: %d bits set for %d keys in the stripe", numBlocks, k, s, set, kept)
				}
			}
		}
	}
}

// TestBlockedVectorFits pins the dispatch rule without allocating the
// filters it rejects: the vector kernel runs only on a word array of
// exactly 8·numBlocks words, 1 <= numBlocks < 2^32 and 1 <= k <= 8;
// everything else takes the Go kernel.
func TestBlockedVectorFits(t *testing.T) {
	for _, c := range []struct {
		nWords    uint64 // uint64, not len's int: the wide cases hold on 32-bit builds too
		numBlocks uint64
		k         uint
		want      bool
	}{
		{8, 1, 1, true},
		{8 << 20, 1 << 20, blockedMaxK, true},
		{8 * (1<<32 - 1), 1<<32 - 1, 3, true},
		{8 << 32, 1 << 32, 3, false},   // Reduce's 32-bit identity needs numBlocks < 2^32
		{8 << 33, 1 << 33, 3, false},   //
		{0, 1 << 61, 3, false},         // 8·numBlocks wraps to 0
		{16, 1, 3, false},              // words longer than the blocks
		{8, 2, 3, false},               // words shorter than the blocks
		{0, 0, 3, false},               // no block
		{8, 1, 0, false},               // no probe
		{8, 1, blockedMaxK + 1, false}, // more probes than the kernel resolves
	} {
		if got := vectorFits(c.nWords, c.numBlocks, c.k); got != c.want {
			t.Errorf("vectorFits(%d words, %d blocks, k=%d) = %v, want %v", c.nWords, c.numBlocks, c.k, got, c.want)
		}
	}
	// A filter that breaks the word-count invariant still answers
	// through the Go kernel.
	f := NewBlocked(1000, 12)
	keys := workload.Keys(1000, 12)
	f.InsertBatch(keys)
	f.words = append(f.words, 0)
	out := make([]bool, len(keys))
	f.ContainsBatch(keys, out)
	for i, ok := range out {
		if !ok {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

// FuzzBlockedContainsBatch checks avx512 ≡ go ≡ scalar Contains on
// random filters: bits/key, key count, hash seed, probe keys, batch
// length and out's offset all come from the input.
func FuzzBlockedContainsBatch(f *testing.F) {
	f.Add(uint8(47), uint16(1000), uint64(BlockedSeed), uint64(1), uint16(4096), uint8(0))
	f.Add(uint8(3), uint16(17), uint64(7), uint64(2), uint16(13), uint8(3))
	f.Add(uint8(0), uint16(0), uint64(0), uint64(0), uint16(0), uint8(0))
	f.Add(uint8(255), uint16(65535), uint64(1<<63), uint64(9), uint16(257), uint8(7))
	f.Fuzz(func(t *testing.T, bpkQ uint8, nKeys uint16, seed, keySeed uint64, batch uint16, off uint8) {
		bpk := float64(bpkQ)/16 + 0.25 // 0.25 .. 16.2 bits/key: k 1..8
		n := int(nKeys)%(1<<14) + 1
		filter := NewBlockedSeeded(n, bpk, seed)
		inserted := workload.Keys(n, keySeed)
		filter.InsertBatch(inserted)
		probe := make([]uint64, int(batch)%4200)
		for i := range probe {
			if i&1 == 0 {
				probe[i] = inserted[(i/2)%n]
			} else {
				probe[i] = workload.Key(uint64(i)+1<<48, keySeed) // absent
			}
		}
		o := int(off % 8)
		goOut, avxOut := make([]bool, len(probe)+o), make([]bool, len(probe)+o)
		containsBatchWith(filter, false, probe, goOut[o:])
		avx := haveAVX512
		if avx {
			containsBatchWith(filter, true, probe, avxOut[o:])
		}
		for i, k := range probe {
			want := filter.Contains(k)
			if goOut[o+i] != want {
				t.Fatalf("bits/key %v k=%d n=%d: go kernel key %d = %v, Contains %v", bpk, filter.K(), n, i, goOut[o+i], want)
			}
			if avx && avxOut[o+i] != want {
				t.Fatalf("bits/key %v k=%d n=%d: avx512 kernel key %d = %v, Contains %v", bpk, filter.K(), n, i, avxOut[o+i], want)
			}
			if i&1 == 0 && !want {
				t.Fatalf("false negative for inserted key %d", i)
			}
		}
	})
}

// FuzzBlockedInsertBatch checks avx512 ≡ go ≡ scalar Insert on random
// filters and stripes: bits/key, filter size, hash seed, the keys
// already in the filter, the batch and the stripe [lo, hi) all come
// from the input. The filter starts half full, so the kernels OR into
// words that already hold bits.
func FuzzBlockedInsertBatch(f *testing.F) {
	f.Add(uint8(47), uint16(1000), uint64(BlockedSeed), uint64(1), uint16(4096), uint16(0), uint16(65535))
	f.Add(uint8(3), uint16(17), uint64(7), uint64(2), uint16(13), uint16(1), uint16(1))
	f.Add(uint8(0), uint16(0), uint64(0), uint64(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint8(255), uint16(65535), uint64(1<<63), uint64(9), uint16(257), uint16(100), uint16(7))
	f.Fuzz(func(t *testing.T, bpkQ uint8, nKeys uint16, seed, keySeed uint64, batch, loQ, spanQ uint16) {
		bpk := float64(bpkQ)/16 + 0.25 // 0.25 .. 16.2 bits/key: k 1..8
		n := int(nKeys)%(1<<14) + 1
		scalar := NewBlockedSeeded(n, bpk, seed)
		for _, k := range workload.Keys(n/2, keySeed) {
			scalar.Insert(k)
		}
		nb := scalar.numBlocks
		lo := uint64(loQ) % (nb + 1)
		hi := lo + uint64(spanQ)%(nb-lo+1)
		clone := func() *Blocked {
			c := *scalar
			c.words = append([]uint64(nil), scalar.words...)
			return &c
		}
		goF, avxF := clone(), clone()
		keys := make([]uint64, int(batch)%4200)
		for i := range keys {
			keys[i] = workload.Key(uint64(i)+1<<48, keySeed)
			if base, _, _ := scalar.hashState(keys[i]); base/blockWords-lo < hi-lo {
				scalar.Insert(keys[i])
			}
		}
		insertStripeWith(goF, false, keys, lo, hi)
		avx := haveAVX512
		if avx {
			insertStripeWith(avxF, true, keys, lo, hi)
		}
		for j, want := range scalar.words {
			if goF.words[j] != want {
				t.Fatalf("bits/key %v k=%d, stripe [%d, %d) of %d: go kernel word %d = %#x, Insert %#x", bpk, scalar.K(), lo, hi, nb, j, goF.words[j], want)
			}
			if avx && avxF.words[j] != want {
				t.Fatalf("bits/key %v k=%d, stripe [%d, %d) of %d: avx512 kernel word %d = %#x, Insert %#x", bpk, scalar.K(), lo, hi, nb, j, avxF.words[j], want)
			}
		}
	})
}
