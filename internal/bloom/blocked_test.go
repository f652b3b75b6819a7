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

// benchBlockedContainsBatch probes a blocked filter of n keys at 12
// bits/key with 4096-key batches, every other key absent: the shape of
// the served probe_batch workload, whose filter is the n = 2^24 one.
// ns/key is per probed key. Comparing the cache-resident size with the
// DRAM-sized one tells whether the batched kernel waits on memory or
// on its own instructions.
func benchBlockedContainsBatch(b *testing.B, n int) {
	f := NewBlocked(n, 12)
	for i := 0; i < n; i++ {
		f.Insert(hashutil.Mix64(uint64(i)))
	}
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
