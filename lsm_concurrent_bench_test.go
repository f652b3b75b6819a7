package beyondbloom

// Concurrent LSM store benchmarks. Each sub-benchmark drives the
// Background-mode store from b.RunParallel readers — quiescent, then
// with a churn writer forcing flushes and compactions underneath — so
// `go test -bench LSMConcurrent` reports snapshot-read throughput. No
// BENCH file records it; E18 is the committed measurement. -short
// shrinks the fixture so the 1-iteration smoke run in scripts/check.sh
// stays cheap.

import (
	"sync"
	"testing"

	"beyondbloom/internal/lsm"
	"beyondbloom/internal/workload"
)

const (
	lsmConcBenchN      = 1 << 18
	lsmConcBenchShortN = 1 << 12
)

func lsmConcBenchValue(k uint64) uint64 { return k*2654435761 + 1 }

// lsmConcBenchStore builds a fresh Background-mode store preloaded with
// n keys; the caller owns Close.
func lsmConcBenchStore(b *testing.B) (*lsm.Store, []uint64) {
	b.Helper()
	n := lsmConcBenchN
	if testing.Short() {
		n = lsmConcBenchShortN
	}
	keys := workload.Keys(n, 18)
	s := lsm.New(lsm.Options{
		Policy: lsm.PolicyMonkey, MemtableSize: 1024, SizeRatio: 4,
		Background: true, L0RunBudget: 8,
	})
	for _, k := range keys {
		s.Put(k, lsmConcBenchValue(k))
	}
	s.Flush()
	return s, keys
}

func BenchmarkLSMConcurrentGet(b *testing.B) {
	s, keys := lsmConcBenchStore(b)
	defer s.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			if v, ok := s.Get(k); !ok || v != lsmConcBenchValue(k) {
				b.Errorf("key %d = %d,%v", k, v, ok)
				return
			}
			i += 7
		}
	})
}

func BenchmarkLSMConcurrentGetChurn(b *testing.B) {
	s, keys := lsmConcBenchStore(b)
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn keys live far above the read set
		defer wg.Done()
		k := uint64(1) << 40
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Put(k, k)
			if k%3 == 0 {
				s.Delete(k)
			}
			k++
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			if v, ok := s.Get(k); !ok || v != lsmConcBenchValue(k) {
				b.Errorf("key %d = %d,%v", k, v, ok)
				return
			}
			i += 7
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func BenchmarkLSMConcurrentPut(b *testing.B) {
	s := lsm.New(lsm.Options{
		Policy: lsm.PolicyMonkey, MemtableSize: 1024, SizeRatio: 4,
		Background: true, L0RunBudget: 8,
	})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		s.Put(k, lsmConcBenchValue(k))
	}
}
