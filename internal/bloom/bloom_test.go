package bloom

import (
	"math"
	"testing"
	"testing/quick"

	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

func TestFPRNearTarget(t *testing.T) {
	for _, eps := range []float64{0.05, 0.01, 0.001} {
		keys := workload.Keys(20000, 2)
		neg := workload.DisjointKeys(100000, 2)
		f := New(len(keys), eps)
		for _, k := range keys {
			f.Insert(k)
		}
		got := metrics.FPR(f, neg)
		if got > eps*2 {
			t.Errorf("eps=%g: measured FPR %g more than 2x target", eps, got)
		}
		if eps >= 0.01 && got < eps/10 {
			t.Errorf("eps=%g: measured FPR %g suspiciously low (size accounting bug?)", eps, got)
		}
	}
}

func TestFillRatioAtCapacity(t *testing.T) {
	keys := workload.Keys(50000, 3)
	f := New(len(keys), 0.01)
	for _, k := range keys {
		f.Insert(k)
	}
	if r := f.FillRatio(); math.Abs(r-0.5) > 0.05 {
		t.Errorf("fill ratio %f, want ≈0.5 at design capacity", r)
	}
}

func TestBitsPerKeyMatchesTheory(t *testing.T) {
	n := 10000
	f := New(n, 0.01)
	perKey := float64(f.SizeBits()) / float64(n)
	want := 1.44 * math.Log2(100)
	if perKey < want*0.95 || perKey > want*1.1 {
		t.Errorf("bits/key = %f, want ≈%f", perKey, want)
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		bf := New(len(keys)+1, 0.01)
		for _, k := range keys {
			bf.Insert(k)
		}
		for _, k := range keys {
			if !bf.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCountingAddRemoveCount(t *testing.T) {
	c := NewCounting(1000, 0.01, 4)
	keys := workload.Keys(200, 5)
	for i, k := range keys {
		c.Add(k, uint64(i%3+1))
	}
	for i, k := range keys {
		want := uint64(i%3 + 1)
		if got := c.Count(k); got < want {
			t.Fatalf("Count(%d) = %d, underreports %d", k, got, want)
		}
	}
	// Remove everything; most counts should drop to zero (collisions may
	// leave residue, but residue can only overcount).
	for i, k := range keys {
		c.Remove(k, uint64(i%3+1))
	}
	zero := 0
	for _, k := range keys {
		if c.Count(k) == 0 {
			zero++
		}
	}
	if zero < len(keys)*9/10 {
		t.Errorf("after full removal only %d/%d keys at zero", zero, len(keys))
	}
}

func TestCountingSaturation(t *testing.T) {
	c := NewCounting(100, 0.01, 2) // counters max out at 3
	k := uint64(42)
	c.Add(k, 10)
	if c.Saturations() == 0 {
		t.Fatal("expected saturation events")
	}
	if got := c.Count(k); got != 3 {
		t.Fatalf("saturated count = %d, want clamp at 3", got)
	}
	// Removing from a saturated cell must not decrement (stuck) — the
	// undercount hazard is in *other* keys, not false negatives here.
	c.Remove(k, 1)
	if got := c.Count(k); got != 3 {
		t.Fatalf("saturated counter moved on Remove: %d", got)
	}
}

func TestCountingUndercountAfterSaturationScenario(t *testing.T) {
	// The tutorial's §2.6 hazard: after saturation and deletes, the filter
	// can no longer meet its error bound. We verify the mechanism: a
	// saturated cell never returns below max even when its true count
	// drops, i.e. the structure has lost delete fidelity.
	c := NewCounting(50, 0.05, 2)
	k := uint64(7)
	c.Add(k, 5)    // saturates at 3
	c.Remove(k, 5) // stuck at 3
	if c.Count(k) != 3 {
		t.Fatalf("expected stuck counter, got %d", c.Count(k))
	}
	// RebuildWider with the exact multiset restores fidelity.
	c2 := c.RebuildWider(map[uint64]uint64{k: 5})
	if got := c2.Count(k); got != 5 {
		t.Fatalf("after rebuild Count = %d, want 5", got)
	}
	c2.Remove(k, 5)
	if got := c2.Count(k); got != 0 {
		t.Fatalf("after rebuild+remove Count = %d, want 0", got)
	}
}

func TestCountingNeverUnderreportsProperty(t *testing.T) {
	f := func(seed uint8) bool {
		c := NewCounting(500, 0.01, 8)
		keys := workload.Keys(100, uint64(seed))
		truth := map[uint64]uint64{}
		for i, k := range keys {
			d := uint64(i%5 + 1)
			c.Add(k, d)
			truth[k] += d
		}
		for k, want := range truth {
			if c.Count(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCountingInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 0 should panic")
		}
	}()
	NewCounting(10, 0.01, 0)
}

func TestSpectralSkewedCounts(t *testing.T) {
	s := NewSpectral(2000, 0.01, 2)
	keys := workload.Keys(1000, 7)
	truth := workload.ZipfMultiset(keys, 50000, 1.5, 11)
	for k, c := range truth {
		s.Add(k, c)
	}
	under := 0
	for k, want := range truth {
		if s.Count(k) < want {
			under++
		}
	}
	if under > 0 {
		t.Fatalf("%d underreported counts", under)
	}
}

func TestSpectralMIKeepsTailSmall(t *testing.T) {
	// With minimum increase, a single huge key shouldn't inflate the
	// counts of unrelated keys much.
	s := NewSpectral(5000, 0.01, 2)
	s.Add(1, 1000000)
	inflated := 0
	others := workload.Keys(1000, 9)
	for _, k := range others {
		if s.Count(k) > 0 {
			inflated++
		}
	}
	if inflated > 50 {
		t.Errorf("%d/1000 unrelated keys inflated by one heavy hitter", inflated)
	}
}

func TestSpectralRemoveUnsupported(t *testing.T) {
	s := NewSpectral(100, 0.01, 2)
	if err := s.Remove(1, 1); err == nil {
		t.Fatal("Remove should be unsupported for MI spectral filter")
	}
}

func TestSpectralOverflow(t *testing.T) {
	s := NewSpectral(100, 0.01, 2)
	s.Add(5, 1000)
	if got := s.Count(5); got < 1000 {
		t.Fatalf("overflowed count = %d, want >= 1000", got)
	}
	if s.SizeBits() <= s.counters.SizeBits() {
		t.Error("overflow table not charged in SizeBits")
	}
}

func TestScalableGrowsAndKeepsFPR(t *testing.T) {
	s, err := NewScalable(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.Keys(50000, 13) // 50x initial capacity
	for _, k := range keys {
		s.Insert(k)
	}
	if s.Stages() < 4 {
		t.Fatalf("expected multiple stages, got %d", s.Stages())
	}
	if fn := metrics.FalseNegatives(s, keys); fn != 0 {
		t.Fatalf("%d false negatives after growth", fn)
	}
	neg := workload.DisjointKeys(100000, 13)
	if fpr := metrics.FPR(s, neg); fpr > 0.02 {
		t.Errorf("compound FPR %f exceeds budget 0.01 by >2x after growth", fpr)
	}
}

func TestScalableEmptyContains(t *testing.T) {
	s, err := NewScalable(10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(1) {
		t.Fatal("empty scalable filter claims membership")
	}
}

func BenchmarkBloomInsert(b *testing.B) {
	f := New(b.N+1, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkBloomContains(b *testing.B) {
	f := New(1<<20, 0.01)
	for i := 0; i < 1<<20; i++ {
		f.Insert(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}
