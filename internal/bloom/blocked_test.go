package bloom

import (
	"testing"

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

func TestBlockedBatchMatchesScalar(t *testing.T) {
	const n = 20000
	keys := workload.Keys(n, 3)
	f := NewBlocked(n, 10)
	for _, k := range keys[:n/2] {
		f.Insert(k)
	}
	out := make([]bool, n)
	f.ContainsBatch(keys, out)
	for i, k := range keys {
		if out[i] != f.Contains(k) {
			t.Fatalf("batch/scalar disagree at %d", i)
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
