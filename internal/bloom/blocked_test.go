package bloom

import (
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/workload"
)

func TestBlockedNoFalseNegatives(t *testing.T) {
	const n = 50000
	keys := workload.Keys(n, 1)
	f := NewBlocked(n, 12)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
}

func TestBlockedFPRReasonable(t *testing.T) {
	const n = 50000
	keys := workload.Keys(n, 2)
	neg := workload.DisjointKeys(4*n, 2)
	f := NewBlocked(n, 12)
	for _, k := range keys {
		f.Insert(k)
	}
	fp := 0
	for _, k := range neg {
		if f.Contains(k) {
			fp++
		}
	}
	fpr := float64(fp) / float64(len(neg))
	// A classic filter at 12 bits/key gives ~3e-4; blocking costs a
	// small constant factor (block imbalance). Anything within ~10x of
	// the classic rate means the layout works; 1e-2 would mean broken
	// hashing.
	if fpr > 5e-3 {
		t.Fatalf("blocked FPR %v too high for 12 bits/key", fpr)
	}
}

// TestBlockedBatchMatchesScalar checks both blocked kernels
// against their scalar Contains at every k from 1 to blockedMaxK —
// bits/key 1…12 walk BloomOptimalK up to 8, and 16 and 24 hit the
// blockedMaxK clamp — with batch lengths that end on a partial
// BatchChunk.
func TestBlockedBatchMatchesScalar(t *testing.T) {
	const n = 2000
	keys := workload.Keys(2*n+97, 3) // first n inserted, the rest absent
	seen := map[uint]bool{}
	for _, bpk := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 24} {
		blocked, choices := NewBlocked(n, bpk), NewBlockedChoices(n, bpk)
		if blocked.K() != choices.K() {
			t.Fatalf("bits/key %v: k differs between variants", bpk)
		}
		seen[blocked.K()] = true
		for _, k := range keys[:n] {
			blocked.Insert(k)
			choices.Insert(k)
		}
		for _, f := range []interface {
			core.BatchFilter
			Contains(uint64) bool
		}{blocked, choices} {
			for _, m := range []int{1, 255, 257, len(keys)} {
				out := make([]bool, m)
				f.ContainsBatch(keys[:m], out)
				for i, k := range keys[:m] {
					if want := f.Contains(k); out[i] != want {
						t.Fatalf("%T bits/key %v k=%d len %d: batch[%d] = %v, scalar %v",
							f, bpk, blocked.K(), m, i, out[i], want)
					}
				}
			}
		}
	}
	for k := uint(1); k <= blockedMaxK; k++ {
		if !seen[k] {
			t.Fatalf("no budget exercised k=%d", k)
		}
	}
}

// TestBlockedInsertBatchMatchesScalar checks that InsertBatch leaves
// exactly the words and Len a scalar Insert loop does, at every k (the
// bits/key walk of TestBlockedBatchMatchesScalar) and at lengths that
// are empty, one key, and on either side of a BatchChunk boundary.
func TestBlockedInsertBatchMatchesScalar(t *testing.T) {
	keys := workload.Keys(4097, 4)
	for _, bpk := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 24} {
		for _, m := range []int{0, 1, 255, 256, 257, 4097} {
			scalar, batch := NewBlocked(2000, bpk), NewBlocked(2000, bpk)
			for _, k := range keys[:m] {
				scalar.Insert(k)
			}
			if err := batch.InsertBatch(keys[:m]); err != nil {
				t.Fatal(err)
			}
			assertSameBlocked(t, scalar, batch, "bits/key", bpk, "len", m)
		}
	}
}

// TestBlockedInsertBatchOneBlock packs a whole chunk into one 512-bit
// block, so nearly every word is shared by many keys of the chunk. A
// set pass that wrote staged words back would lose bits here.
func TestBlockedInsertBatchOneBlock(t *testing.T) {
	keys := workload.Keys(3*core.BatchChunk, 5)
	for _, bpk := range []float64{4, 12, 24} {
		scalar, batch := NewBlocked(1, bpk), NewBlocked(1, bpk)
		if scalar.numBlocks != 1 {
			t.Fatalf("bits/key %v: %d blocks, want 1", bpk, scalar.numBlocks)
		}
		for _, k := range keys {
			scalar.Insert(k)
		}
		batch.InsertBatch(keys)
		assertSameBlocked(t, scalar, batch, "bits/key", bpk, "one block", true)
		out := make([]bool, len(keys))
		batch.ContainsBatch(keys, out)
		for i, ok := range out {
			if !ok {
				t.Fatalf("bits/key %v: false negative for key %d", bpk, i)
			}
		}
	}
}

func assertSameBlocked(t *testing.T, want, got *Blocked, ctx ...any) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%v: Len %d, scalar %d", ctx, got.Len(), want.Len())
	}
	for i := range want.words {
		if got.words[i] != want.words[i] {
			t.Fatalf("%v k=%d: word %d = %#x, scalar %#x", ctx, want.K(), i, got.words[i], want.words[i])
		}
	}
}

// newBenchBlocked returns a blocked filter of n keys at 12 bits/key.
// Under -short a DRAM-sized n shrinks to 2^16, so a smoke run only
// checks that the benchmark works.
func newBenchBlocked(n int) *Blocked {
	if testing.Short() && n > 1<<16 {
		n = 1 << 16
	}
	f := NewBlocked(n, 12)
	var keys [4096]uint64
	for i := 0; i < n; i += len(keys) {
		chunk := keys[:min(len(keys), n-i)]
		for j := range chunk {
			chunk[j] = hashutil.Mix64(uint64(i + j))
		}
		f.InsertBatch(chunk)
	}
	return f
}

// benchBlockedInsert inserts 4096-key batches of absent keys into a
// filter already holding n keys, so every word is touched memory and
// the DRAM size measures read-modify-write misses, not page faults.
// ns/key is per inserted key; batch selects InsertBatch over a scalar
// Insert loop.
func benchBlockedInsert(b *testing.B, n int, batch bool) {
	f := newBenchBlocked(n)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = hashutil.Mix64(uint64(f.Len() + i))
	}
	const size = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * size % len(keys)
		if batch {
			f.InsertBatch(keys[at : at+size])
			continue
		}
		for _, k := range keys[at : at+size] {
			f.Insert(k)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/key")
}

// BenchmarkBlockedInsertScalarResident: 2^14 keys, a 24 KB filter.
func BenchmarkBlockedInsertScalarResident(b *testing.B) { benchBlockedInsert(b, 1<<14, false) }

// BenchmarkBlockedInsertBatchResident: 2^14 keys, a 24 KB filter.
func BenchmarkBlockedInsertBatchResident(b *testing.B) { benchBlockedInsert(b, 1<<14, true) }

// BenchmarkBlockedInsertScalarDRAM: 2^24 keys, a 24 MiB filter.
func BenchmarkBlockedInsertScalarDRAM(b *testing.B) { benchBlockedInsert(b, 1<<24, false) }

// BenchmarkBlockedInsertBatchDRAM: 2^24 keys, a 24 MiB filter.
func BenchmarkBlockedInsertBatchDRAM(b *testing.B) { benchBlockedInsert(b, 1<<24, true) }

// benchBlockedContainsBatch probes a blocked filter of n keys at 12
// bits/key with 4096-key batches, every other key absent: the shape of
// the served probe_batch workload, whose filter is the n = 2^24 one.
// ns/key is per probed key. Comparing the cache-resident size with the
// DRAM-sized one tells whether the batched kernel waits on memory or
// on its own instructions.
func benchBlockedContainsBatch(b *testing.B, n int) {
	f := newBenchBlocked(n)
	n = f.Len()
	probe := make([]uint64, 1<<16)
	for i := range probe {
		j := uint64(i) * 2654435761 % uint64(n)
		if i&1 == 1 {
			j += uint64(n) // Mix64 is a bijection, so these are absent
		}
		probe[i] = hashutil.Mix64(j)
	}
	out := make([]bool, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * len(out) % len(probe)
		f.ContainsBatch(probe[at:at+len(out)], out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/key")
}

// BenchmarkBlockedContainsBatchResident: 2^14 keys, a 24 KB filter.
func BenchmarkBlockedContainsBatchResident(b *testing.B) { benchBlockedContainsBatch(b, 1<<14) }

// BenchmarkBlockedContainsBatchDRAM: 2^24 keys, a 24 MiB filter.
func BenchmarkBlockedContainsBatchDRAM(b *testing.B) { benchBlockedContainsBatch(b, 1<<24) }

func TestBlockedProbesStayInOneBlock(t *testing.T) {
	f := NewBlocked(1000, 16)
	for key := uint64(0); key < 1000; key++ {
		base, g1, g2 := f.hashState(key)
		if base%blockWords != 0 || base >= uint64(len(f.words)) {
			t.Fatalf("block base %d out of range", base)
		}
		for i := uint(0); i < f.k; i++ {
			pos := probePos(g1, g2, i)
			if pos >= blockWords*64 {
				t.Fatalf("probe position %d escapes the 512-bit block", pos)
			}
		}
	}
}
