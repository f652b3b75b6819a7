package concurrent

import (
	"runtime"
	"sync"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

func newShardedQF(tb testing.TB, logShards uint, totalCap int) *Sharded {
	tb.Helper()
	s, err := NewSharded(logShards, func(int) core.DeletableFilter {
		return quotient.NewForCapacity(totalCap>>logShards+totalCap>>(logShards+1), 0.001)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestShardedBasic(t *testing.T) {
	s := newShardedQF(t, 3, 20000)
	keys := workload.Keys(10000, 1)
	for _, k := range keys {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(s, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
	for _, k := range keys[:5000] {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(s, keys[5000:]); fn != 0 {
		t.Fatalf("%d false negatives after deletes", fn)
	}
	if s.Shards() != 8 {
		t.Fatalf("Shards = %d", s.Shards())
	}
}

func TestShardedConcurrentMixed(t *testing.T) {
	// Hammer the filter from many goroutines with disjoint key slices;
	// run with -race to validate the locking.
	s := newShardedQF(t, 4, 200000)
	workers := runtime.GOMAXPROCS(0) * 2
	perWorker := 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := workload.Keys(perWorker, uint64(w+1))
			for _, k := range keys {
				if err := s.Insert(k); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			for _, k := range keys {
				if !s.Contains(k) {
					t.Errorf("lost key %d", k)
					return
				}
			}
			for _, k := range keys[:perWorker/2] {
				if err := s.Delete(k); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Survivors of every worker still present.
	for w := 0; w < workers; w++ {
		keys := workload.Keys(perWorker, uint64(w+1))
		if fn := metrics.FalseNegatives(s, keys[perWorker/2:]); fn != 0 {
			t.Fatalf("worker %d: %d false negatives", w, fn)
		}
	}
}

func TestBadConfigReturnsError(t *testing.T) {
	if _, err := NewSharded(13, func(int) core.DeletableFilter { return cuckoo.New(10, 8) }); err == nil {
		t.Fatal("oversized logShards must be rejected")
	}
	if _, err := NewSharded(1, nil); err == nil {
		t.Fatal("nil build must be rejected")
	}
	if _, err := NewSharded(1, func(int) core.DeletableFilter { return nil }); err == nil {
		t.Fatal("nil shard filter must be rejected")
	}
	if s, err := NewSharded(MaxLogShards, func(int) core.DeletableFilter { return cuckoo.New(8, 8) }); err != nil || s.Shards() != 1<<MaxLogShards {
		t.Fatalf("max logShards should be accepted: %v", err)
	}
}

func TestShardedCuckooBackend(t *testing.T) {
	s, err := NewSharded(2, func(int) core.DeletableFilter {
		return cuckoo.New(4000, 14)
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.Keys(10000, 3)
	for _, k := range keys {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(s, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
}

func TestShardingUniform(t *testing.T) {
	// Keys should spread roughly evenly across shards (capacity planning
	// depends on it).
	s := newShardedQF(t, 4, 160000)
	keys := workload.Keys(80000, 7)
	for _, k := range keys {
		s.Insert(k)
	}
	for i := range s.shards {
		n := s.shards[i].f.(*quotient.Filter).Len()
		want := len(keys) / len(s.shards)
		if n < want*8/10 || n > want*12/10 {
			t.Errorf("shard %d holds %d keys, want ≈%d", i, n, want)
		}
	}
}

func BenchmarkShardedInsertParallel(b *testing.B) {
	s := newShardedQF(b, 6, b.N+1024)
	var ctr uint64
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		base := ctr
		ctr += 1 << 32
		mu.Unlock()
		i := base
		for pb.Next() {
			s.Insert(i)
			i++
		}
	})
}

func BenchmarkShardedLookupParallel(b *testing.B) {
	s := newShardedQF(b, 6, 1<<20)
	keys := workload.Keys(1<<19, 9)
	for _, k := range keys {
		s.Insert(k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Contains(keys[i&(1<<19-1)])
			i++
		}
	})
}

func TestShardedSizeBits(t *testing.T) {
	s := newShardedQF(t, 2, 1000)
	if s.SizeBits() <= 0 {
		t.Error("SizeBits must be positive")
	}
}
