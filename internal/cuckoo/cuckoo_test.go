package cuckoo

import (
	"errors"
	"testing"
	"testing/quick"

	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

func TestInsertContains(t *testing.T) {
	keys := workload.Keys(10000, 1)
	f := New(len(keys), 12)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
}

func TestFPRNearTarget(t *testing.T) {
	keys := workload.Keys(20000, 2)
	f := NewForEpsilon(len(keys), 0.01)
	for _, k := range keys {
		f.Insert(k)
	}
	neg := workload.DisjointKeys(200000, 2)
	if fpr := metrics.FPR(f, neg); fpr > 0.02 {
		t.Errorf("FPR %f exceeds 2x target 0.01", fpr)
	}
}

func TestDelete(t *testing.T) {
	keys := workload.Keys(5000, 3)
	f := New(len(keys), 14)
	for _, k := range keys {
		f.Insert(k)
	}
	for _, k := range keys[:2500] {
		if err := f.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(f, keys[2500:]); fn != 0 {
		t.Fatalf("%d false negatives among survivors", fn)
	}
	gone := 0
	for _, k := range keys[:2500] {
		if !f.Contains(k) {
			gone++
		}
	}
	if gone < 2400 {
		t.Errorf("only %d/2500 deleted keys gone", gone)
	}
	if err := f.Delete(keys[0]); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestDuplicates(t *testing.T) {
	f := New(100, 12)
	for i := 0; i < 5; i++ {
		if err := f.Insert(77); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d, want 5", f.Len())
	}
	for i := 0; i < 5; i++ {
		if err := f.Delete(77); err != nil {
			t.Fatalf("delete copy %d: %v", i, err)
		}
	}
	if f.Contains(77) {
		t.Fatal("still present after deleting all copies")
	}
}

func TestFillsToHighLoad(t *testing.T) {
	f := New(10000, 12)
	inserted := 0
	keys := workload.Keys(20000, 5)
	for _, k := range keys {
		if f.Insert(k) != nil {
			break
		}
		inserted++
	}
	if lf := f.LoadFactor(); lf < 0.90 {
		t.Errorf("filter declared full at load %f, want >= 0.90", lf)
	}
	// Everything inserted must still be found (victim cache check).
	if fn := metrics.FalseNegatives(f, keys[:inserted]); fn != 0 {
		t.Fatalf("%d false negatives at high load", fn)
	}
}

func TestInsertAfterFullRefused(t *testing.T) {
	f := New(64, 8)
	keys := workload.Keys(1000, 7)
	var full bool
	for _, k := range keys {
		if f.Insert(k) != nil {
			full = true
			// Subsequent inserts also fail fast while victim is parked.
			if err := f.Insert(k + 1); err == nil {
				t.Fatal("insert succeeded while victim parked")
			}
			break
		}
	}
	if !full {
		t.Skip("filter never filled (unexpected geometry)")
	}
}

func TestDeleteReseatsVictim(t *testing.T) {
	f := New(64, 8)
	keys := workload.Keys(1000, 9)
	var inserted []uint64
	for _, k := range keys {
		if f.Insert(k) != nil {
			break
		}
		inserted = append(inserted, k)
	}
	if len(f.stash) == 0 {
		t.Skip("no victim parked")
	}
	// Delete a few keys; the victim should eventually re-seat.
	for _, k := range inserted[:10] {
		f.Delete(k)
	}
	if len(f.stash) > 0 {
		t.Error("victim not re-seated after deletes freed space")
	}
	// And inserts work again.
	if err := f.Insert(inserted[0]); err != nil {
		t.Errorf("insert after reseat: %v", err)
	}
}

func TestQuickMembershipModel(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := New(len(keys)+8, 16)
		for _, k := range keys {
			if f.Insert(k) != nil {
				return true // full is acceptable, skip
			}
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMapletPutGetDelete(t *testing.T) {
	m := NewMaplet(5000, 14, 8)
	keys := workload.Keys(5000, 11)
	for i, k := range keys {
		if err := m.Put(k, uint64(i%256)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		vals := m.Get(k)
		found := false
		for _, v := range vals {
			if v == uint64(i%256) {
				found = true
			}
		}
		if !found {
			t.Fatalf("Get(%d) = %v missing %d", k, vals, i%256)
		}
	}
	for i, k := range keys[:1000] {
		if err := m.Delete(k, uint64(i%256)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", m.Len())
	}
}

func TestMapletNRS(t *testing.T) {
	m := NewMaplet(10000, 12, 8)
	keys := workload.Keys(10000, 13)
	for _, k := range keys {
		m.Put(k, k&0xFF)
	}
	neg := workload.DisjointKeys(50000, 13)
	total := 0
	for _, k := range neg {
		total += len(m.Get(k))
	}
	nrs := float64(total) / float64(len(neg))
	// ε ≈ 2*4/2^12 ≈ 0.002; allow 3x.
	if nrs > 0.006 {
		t.Errorf("NRS = %f, want ≈0.002", nrs)
	}
}

func TestMapletGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry should panic")
		}
	}()
	NewMaplet(10, 1, 1)
}

func TestFilterGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad fingerprint width should panic")
		}
	}()
	New(10, 1)
}

func BenchmarkCuckooInsert(b *testing.B) {
	f := New(b.N+16, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkCuckooContains(b *testing.B) {
	f := New(1<<20, 12)
	for i := 0; i < 900000; i++ {
		f.Insert(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}

func TestChainedGrowsWithoutLimit(t *testing.T) {
	c := NewChained(1000, 12)
	keys := workload.Keys(20000, 31)
	for _, k := range keys {
		if err := c.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	// Links round capacity up to a power-of-two bucket count, so each
	// holds ~2000 keys here.
	if c.Links() < 8 {
		t.Fatalf("expected ~10 links, got %d", c.Links())
	}
	if fn := metrics.FalseNegatives(c, keys); fn != 0 {
		t.Fatalf("%d false negatives across chain", fn)
	}
}

func TestChainedDelete(t *testing.T) {
	c := NewChained(500, 14)
	keys := workload.Keys(3000, 33)
	for _, k := range keys {
		c.Insert(k)
	}
	for _, k := range keys[:1500] {
		if err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(c, keys[1500:]); fn != 0 {
		t.Fatalf("%d false negatives after deletes", fn)
	}
	if c.Len() != 1500 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.Delete(workload.DisjointKeys(1, 33)[0]); err == nil {
		t.Log("delete of absent key hit a collision (possible at 14-bit fp)")
	}
}

func TestChainedFPRGrowsWithChain(t *testing.T) {
	// Each link contributes its own FPR, so the compound rate grows
	// roughly linearly with chain length — the chained-expansion cost.
	short := NewChained(10000, 10)
	long := NewChained(500, 10)
	keys := workload.Keys(10000, 35)
	for _, k := range keys {
		short.Insert(k)
		long.Insert(k)
	}
	neg := workload.DisjointKeys(100000, 35)
	fprShort := metrics.FPR(short, neg)
	fprLong := metrics.FPR(long, neg)
	if fprLong < fprShort*3 {
		t.Errorf("long chain FPR %g not well above single-link %g", fprLong, fprShort)
	}
}
