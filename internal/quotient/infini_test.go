package quotient

import (
	"errors"
	"runtime"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

func mustNewInfini(t testing.TB, q uint) *Infini {
	t.Helper()
	f, err := NewInfini(q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInfiniNoFalseNegativesAcrossExpansions(t *testing.T) {
	f := mustNewInfini(t, 8) // 256 buckets; will expand ~8 times for 50k keys
	keys := workload.Keys(50000, 1)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if f.Expansions() < 7 {
		t.Fatalf("expected many expansions, got %d", f.Expansions())
	}
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatalf("%d false negatives after %d expansions", fn, f.Expansions())
	}
}

func TestInfiniFPRStableAcrossExpansions(t *testing.T) {
	// The InfiniFilter headline: FPR stays roughly flat as the filter
	// doubles, unlike plain quotient-filter doubling.
	f := mustNewInfini(t, 10)
	neg := workload.DisjointKeys(100000, 2)
	var rates []float64
	keyIdx := 0
	keys := workload.Keys(1<<17, 2)
	for target := 1 << 10; target <= 1<<16; target <<= 2 {
		for keyIdx < target {
			f.Insert(keys[keyIdx])
			keyIdx++
		}
		rates = append(rates, metrics.FPR(f, neg))
	}
	first, last := rates[0], rates[len(rates)-1]
	if first == 0 {
		first = 1e-6
	}
	if last > first*8 {
		t.Errorf("FPR grew from %g to %g across expansions — not stable", first, last)
	}
	if last > 0.01 {
		t.Errorf("final FPR %g too high for 16-bit fresh fingerprints", last)
	}
}

func TestInfiniDelete(t *testing.T) {
	f := mustNewInfini(t, 6)
	keys := workload.Keys(2000, 3) // forces expansions
	for _, k := range keys {
		f.Insert(k)
	}
	for _, k := range keys[:1000] {
		if err := f.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(f, keys[1000:]); fn != 0 {
		t.Fatalf("%d false negatives among survivors", fn)
	}
	if err := f.Delete(workload.DisjointKeys(1, 3)[0]); !errors.Is(err, core.ErrNotFound) {
		t.Logf("delete of absent key: %v (collision possible)", err)
	}
}

func TestInfiniVoidHandling(t *testing.T) {
	// Tiny fresh fingerprints aren't configurable, so force voids by
	// expanding more than InfiniFreshBits times: start at q=1 and insert
	// enough keys that entries survive >16 doublings.
	f := mustNewInfini(t, 1)
	keys := workload.Keys(300000, 5)
	for _, k := range keys {
		f.Insert(k)
	}
	// q grew from 1 to ~19: early entries crossed 16 expansions.
	if f.Expansions() <= int(InfiniFreshBits) {
		t.Skip("not enough expansions to create voids")
	}
	if f.Voids() == 0 {
		t.Error("expected void entries after exhausting fingerprint bits")
	}
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatalf("%d false negatives with voids present", fn)
	}
}

func TestInfiniSizeGrowsLinearly(t *testing.T) {
	f := mustNewInfini(t, 8)
	keys := workload.Keys(100000, 7)
	for _, k := range keys {
		f.Insert(k)
	}
	perKey := float64(f.SizeBits()) / float64(f.Len())
	if perKey > 30 {
		t.Errorf("bits/entry = %f, want around InfiniFreshBits+overhead", perKey)
	}
}

// TestInfiniHeapMatchesSizeBits checks that SizeBits is a measurement:
// a filter grown to 2^18 keys from 2^12 slots holds at most 1.1x its
// SizeBits of live heap once the tables its doublings replaced are
// collected.
func TestInfiniHeapMatchesSizeBits(t *testing.T) {
	keys := workload.Keys(1<<18, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := mustNewInfini(t, 12)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapBits := 8 * (float64(after.HeapAlloc) - float64(before.HeapAlloc))
	if heapBits > 1.1*float64(f.SizeBits()) {
		t.Errorf("live heap %.0f bits, SizeBits %d: SizeBits undercounts the filter", heapBits, f.SizeBits())
	}
	runtime.KeepAlive(f)
	runtime.KeepAlive(keys) // live at both reads, so the delta is the filter's
}

func BenchmarkInfiniInsert(b *testing.B) {
	f := mustNewInfini(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkInfiniContains(b *testing.B) {
	f := mustNewInfini(b, 8)
	for i := 0; i < 1<<20; i++ {
		f.Insert(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}

// TestInfiniDeleteTakesLongestMatch plants a void entry and, in the same
// run, a fresh entry of a second key, which the void also matches.
// Deleting the second key must take its own, longest match: taking the
// void instead would leave the first key with no entry at all.
func TestInfiniDeleteTakesLongestMatch(t *testing.T) {
	f := mustNewInfini(t, 1)
	const old = 7
	if err := f.Insert(old); err != nil {
		t.Fatal(err)
	}
	for f.Voids() == 0 {
		if err := f.expand(); err != nil {
			t.Fatal(err)
		}
	}
	fq, _ := f.hash(old)
	fresh := uint64(old + 1)
	for ; ; fresh++ {
		if q, _ := f.hash(fresh); q == fq {
			break
		}
	}
	if err := f.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(fresh); err != nil {
		t.Fatal(err)
	}
	if f.Voids() != 1 || !f.Contains(old) {
		t.Fatalf("deleting key %d took the void of key %d (voids %d)", fresh, old, f.Voids())
	}
	if err := f.Delete(old); err != nil || f.Len() != 0 {
		t.Fatalf("delete of key %d: %v, %d entries left", old, err, f.Len())
	}
}
