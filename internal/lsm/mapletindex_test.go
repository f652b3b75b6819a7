package lsm

import (
	"testing"

	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// TestMapletIndexExpandsOnLoad pins the growth rule: the index doubles
// when it reaches mapletMaxLoad, not when a Put finds it full, so no
// insert ever runs against a nearly-full table, and growth loses no
// entry.
func TestMapletIndexExpandsOnLoad(t *testing.T) {
	const n = 1 << 14
	mi := newMapletIndex(quotient.NewMaplet(12, 12, 32))
	keys := workload.Keys(n, 7)
	for i, k := range keys {
		if err := mi.PutExpanding(k, uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		// A put is admitted below the threshold, so it can overshoot it
		// by at most its own slot in the smallest (2^12-slot) table.
		if lf := mi.m.LoadFactor(); lf > mapletMaxLoad+1.0/(1<<12) {
			t.Fatalf("after put %d: load factor %.4f exceeds %.2f", i, lf, mapletMaxLoad)
		}
		if got := mi.m.Len(); got != i+1 {
			t.Fatalf("after put %d: Len = %d", i, got)
		}
	}
	if err := mi.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var cands []uint64
	for i, k := range keys {
		cands = mi.GetAppend(cands[:0], k)
		found := false
		for _, v := range cands {
			found = found || v == uint64(i)
		}
		if !found {
			t.Fatalf("key %d (put %d) lost across expansions: candidates %v", k, i, cands)
		}
	}
}
