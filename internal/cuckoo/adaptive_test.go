package cuckoo

import (
	"testing"

	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

func TestAdaptiveNoFalseNegatives(t *testing.T) {
	keys := workload.Keys(10000, 1)
	c := NewAdaptive(len(keys), 12)
	for _, k := range keys {
		if err := c.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(c, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
}

func TestAdaptiveAdaptFixesRepeatedFP(t *testing.T) {
	keys := workload.Keys(20000, 2)
	c := NewAdaptive(len(keys), 10) // coarse fingerprints: FPs findable
	for _, k := range keys {
		c.Insert(k)
	}
	neg := workload.DisjointKeys(500000, 2)
	var fpKey uint64
	found := false
	for _, k := range neg {
		if c.Contains(k) {
			fpKey = k
			found = true
			break
		}
	}
	if !found {
		t.Skip("no false positive found to adapt away")
	}
	c.Adapt(fpKey)
	if c.Contains(fpKey) {
		t.Fatal("false positive survived Adapt")
	}
	// Stored keys must all still be present after the selector swap.
	if fn := metrics.FalseNegatives(c, keys); fn != 0 {
		t.Fatalf("%d false negatives introduced by Adapt", fn)
	}
}

func TestAdaptiveAdversarialRepeatAttack(t *testing.T) {
	// The §2.3 scenario: an adversary finds one FP and repeats it. An
	// adaptive filter pays O(1) total, a static one pays every time.
	keys := workload.Keys(20000, 3)
	c := NewAdaptive(len(keys), 10)
	for _, k := range keys {
		c.Insert(k)
	}
	neg := workload.DisjointKeys(500000, 3)
	var fpKey uint64
	found := false
	for _, k := range neg {
		if c.Contains(k) {
			fpKey = k
			found = true
			break
		}
	}
	if !found {
		t.Skip("no FP found")
	}
	falseHits := 0
	for i := 0; i < 1000; i++ {
		if c.Contains(fpKey) {
			falseHits++
			c.Adapt(fpKey) // application fixes on discovery
		}
	}
	if falseHits > 4 {
		t.Errorf("repeated attack produced %d false hits; adaptive filter should stop after ~1", falseHits)
	}
}

func TestAdaptiveDelete(t *testing.T) {
	keys := workload.Keys(1000, 5)
	c := NewAdaptive(len(keys), 12)
	for _, k := range keys {
		c.Insert(k)
	}
	for _, k := range keys[:500] {
		if err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(c, keys[500:]); fn != 0 {
		t.Fatalf("%d false negatives after deletes", fn)
	}
	if c.Len() != 500 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func BenchmarkAdaptiveAdapt(b *testing.B) {
	keys := workload.Keys(100000, 21)
	c := NewAdaptive(len(keys), 12)
	for _, k := range keys {
		c.Insert(k)
	}
	neg := workload.DisjointKeys(b.N, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Contains(neg[i]) {
			c.Adapt(neg[i])
		}
	}
}
