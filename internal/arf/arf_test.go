package arf

import (
	"math/rand"
	"sort"
	"testing"

	"beyondbloom/internal/workload"
)

func TestNoFalseNegatives(t *testing.T) {
	keys := workload.Keys(5000, 1)
	f := New(keys, 20000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		k := keys[rng.Intn(len(keys))]
		if !f.MayContainRange(k, k) {
			t.Fatalf("point %d reported empty", k)
		}
		if !f.MayContainRange(k-10, k+10) {
			t.Fatalf("covering range reported empty")
		}
	}
}

func TestAdaptResolvesRepeatedFP(t *testing.T) {
	keys := workload.SmallUniverseKeys(1000, 1<<32, 3)
	// A budget well under the ~44 000 nodes that pre-training would use
	// leaves the tree coarse enough that random empty ranges hit false
	// positives; at 100 000 the search below found none.
	f := New(keys, 20000)
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Find an empty range the coarse tree flags as occupied.
	rng := rand.New(rand.NewSource(5))
	var lo, hi uint64
	found := false
	for i := 0; i < 100000; i++ {
		lo = rng.Uint64() % (1 << 32)
		hi = lo + 100
		j := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
		if (j >= len(sorted) || sorted[j] > hi) && f.MayContainRange(lo, hi) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no false positive found: the search never reached Adapt")
	}
	f.Adapt(lo, hi)
	if f.MayContainRange(lo, hi) {
		t.Fatal("false positive survived Adapt")
	}
	// True positives must survive adaptation.
	for _, k := range keys[:200] {
		if !f.MayContainRange(k, k) {
			t.Fatalf("adaptation removed key %d", k)
		}
	}
}

func TestAdaptOnTruePositiveIsNoop(t *testing.T) {
	keys := []uint64{100}
	f := New(keys, 1000)
	f.Adapt(50, 150) // range actually contains the key: must not break it
	if !f.MayContainRange(50, 150) {
		t.Fatal("adapt on a non-empty range removed the key")
	}
}

func TestBudgetRespected(t *testing.T) {
	keys := workload.Keys(10000, 7)
	f := New(keys, 501)
	for i := 0; i < 1000; i++ {
		lo := uint64(i) * 1e15
		f.Adapt(lo, lo+100)
	}
	if f.Nodes() > 501+2 {
		t.Fatalf("node budget exceeded: %d", f.Nodes())
	}
}

func TestTrainedWorkloadFiltering(t *testing.T) {
	// The ARF sweet spot: a stable repeating query workload gets fully
	// adapted away.
	keys := workload.SmallUniverseKeys(500, 1<<24, 9)
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	f := New(keys, 50000)
	qs := workload.UniformRanges(500, 64, 1<<24, 11)
	var emptyQs []workload.RangeQuery
	for _, q := range qs {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= q.Lo })
		if i >= len(sorted) || sorted[i] > q.Hi {
			emptyQs = append(emptyQs, q)
		}
	}
	// Train.
	for _, q := range emptyQs {
		if f.MayContainRange(q.Lo, q.Hi) {
			f.Adapt(q.Lo, q.Hi)
		}
	}
	// Repeat: everything trained should now answer empty.
	fps := 0
	for _, q := range emptyQs {
		if f.MayContainRange(q.Lo, q.Hi) {
			fps++
		}
	}
	if fps > len(emptyQs)/50 {
		t.Errorf("after training, %d/%d repeated queries still false-positive", fps, len(emptyQs))
	}
}

func TestInvertedRange(t *testing.T) {
	f := New(workload.Keys(10, 13), 100)
	if f.MayContainRange(10, 5) {
		t.Fatal("inverted range must be empty")
	}
}

func BenchmarkQuery(b *testing.B) {
	keys := workload.Keys(100000, 15)
	f := New(keys, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i) * 0x9E3779B97F4A7C15
		f.MayContainRange(lo, lo+1000)
	}
}
