package adaptive

import (
	"testing"

	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

func TestQFNoFalseNegatives(t *testing.T) {
	a := NewQF(14, 8, ExtendUntilDistinct)
	keys := workload.Keys(10000, 7)
	for _, k := range keys {
		if err := a.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(a, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
}

func TestQFAdaptBothPolicies(t *testing.T) {
	for _, policy := range []ExtendPolicy{ExtendUntilDistinct, ExtendOneBit} {
		a := NewQF(14, 6, policy) // coarse: FPs easy to find
		keys := workload.Keys(12000, 11)
		for _, k := range keys {
			a.Insert(k)
		}
		neg := workload.DisjointKeys(200000, 11)
		var fpKey uint64
		found := false
		for _, k := range neg {
			if a.Contains(k) {
				fpKey = k
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("policy %d: no FP found at r=6", policy)
		}
		// ExtendOneBit may need several rounds; UntilDistinct should fix
		// in one.
		rounds := 0
		for a.Contains(fpKey) && rounds < 64 {
			a.Adapt(fpKey)
			rounds++
		}
		if a.Contains(fpKey) {
			t.Fatalf("policy %d: FP never fixed", policy)
		}
		if policy == ExtendUntilDistinct && rounds > 1 {
			t.Errorf("broom policy took %d rounds, want 1", rounds)
		}
		// No false negatives introduced.
		if fn := metrics.FalseNegatives(a, keys); fn != 0 {
			t.Fatalf("policy %d: %d false negatives after adapt", policy, fn)
		}
	}
}

func TestQFMonotoneUnderAttack(t *testing.T) {
	// Total false positives over an adversarial stream stays O(distinct
	// FPs), i.e. adapting is permanent.
	a := NewQF(13, 6, ExtendUntilDistinct)
	keys := workload.Keys(6000, 13)
	for _, k := range keys {
		a.Insert(k)
	}
	neg := workload.DisjointKeys(3000, 13)
	totalFP := 0
	for round := 0; round < 10; round++ {
		for _, k := range neg {
			if a.Contains(k) {
				totalFP++
				a.Adapt(k)
			}
		}
	}
	// Every negative can fire at most a couple of times (first discovery
	// plus rare re-collision at longer extensions).
	if totalFP > len(neg)/2 {
		t.Errorf("total FPs %d over repeated scans — adaptivity not sticking", totalFP)
	}
}

func TestQFDelete(t *testing.T) {
	a := NewQF(12, 8, ExtendUntilDistinct)
	keys := workload.Keys(2000, 17)
	for _, k := range keys {
		a.Insert(k)
	}
	for _, k := range keys[:1000] {
		if err := a.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(a, keys[1000:]); fn != 0 {
		t.Fatalf("%d false negatives after deletes", fn)
	}
	if a.Len() != 1000 {
		t.Fatalf("Len = %d", a.Len())
	}
}
