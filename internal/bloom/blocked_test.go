package bloom

import (
	"bytes"
	"runtime"
	"testing"

	"beyondbloom/internal/core"
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

// TestBlockedFillMatchesSerial pins that the stripe-owned parallel
// fill saves exactly the bytes a serial InsertBatch of the same keys
// does, for worker counts that do and do not divide the block count,
// lengths around a fill chunk, and a filter with fewer blocks than
// workers (the worker count is capped at the block count).
func TestBlockedFillMatchesSerial(t *testing.T) {
	const seed = 6
	gen := workload.Gen(seed)
	for _, n := range []int{0, 1, 4095, 4097, 1 << 16} {
		keys := workload.Keys(n, seed)
		for _, capacity := range []int{n + 1, 100} {
			serial := NewBlocked(capacity, 12)
			serial.InsertBatch(keys)
			var want bytes.Buffer
			if _, err := core.Save(&want, serial); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 7, 64} {
				f := NewBlocked(capacity, 12)
				f.fill(n, gen, workers)
				var got bytes.Buffer
				if _, err := core.Save(&got, f); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("n=%d, %d blocks, %d workers: fill saved different bytes from serial InsertBatch",
						n, f.numBlocks, workers)
				}
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

// benchBlockedFill fills an empty 2^22-key filter at 12 bits/key (2^16
// under -short) from the workload key generator on the given number of
// stripes, once per insert kernel (kernel=go and kernel=avx512). ns/key
// is per inserted key and includes key generation.
func benchBlockedFill(b *testing.B, workers int) {
	n := 1 << 22
	if testing.Short() {
		n = 1 << 16
	}
	gen := workload.Gen(1)
	f := NewBlocked(n, 12)
	for _, kern := range batchKernels {
		b.Run("kernel="+kern.name, func(b *testing.B) {
			forceKernel(b, kern.avx)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clear(f.words)
				b.StartTimer()
				f.fill(n, gen, workers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}

// BenchmarkBlockedFillOneStripe: one worker, the serial fill.
func BenchmarkBlockedFillOneStripe(b *testing.B) { benchBlockedFill(b, 1) }

// BenchmarkBlockedFillStripes: GOMAXPROCS workers, what Fill runs.
func BenchmarkBlockedFillStripes(b *testing.B) { benchBlockedFill(b, runtime.GOMAXPROCS(0)) }

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
