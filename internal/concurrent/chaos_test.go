package concurrent

import (
	"math/rand"
	"sync"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// TestShardedChaos is the sharded filter's property test: many
// goroutines run a seeded mixed Insert/Delete/Contains workload over
// disjoint key pools (so each owns the ground truth for its keys) while
// extra reader goroutines hammer random keys across pools. The invariant
// under -race and interleaving: a key its owner has inserted and not
// deleted is NEVER reported absent.
func TestShardedChaos(t *testing.T) {
	const (
		workers  = 8
		readers  = 4
		poolSize = 4000
		ops      = 20000
	)
	// Deleting by fingerprint is only exact when fingerprints don't
	// collide across workers, so the chaos filter buys a deep fingerprint
	// space (δ=1e-9 ⇒ ~2^43): the seeded pools are then collision-free
	// and "live key answers true" is a sound invariant.
	totalCap := workers * poolSize * 2
	s, err := NewSharded(5, func(int) core.DeletableFilter {
		return quotient.NewForCapacity(totalCap>>5+totalCap>>6, 1e-9)
	})
	if err != nil {
		t.Fatal(err)
	}

	pools := make([][]uint64, workers)
	for w := range pools {
		pools[w] = workload.Keys(poolSize, uint64(100+w))
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pool := pools[rng.Intn(workers)]
				// Result is unchecked: another goroutine may own this key.
				// The read exists to interleave with writers under -race.
				s.Contains(pool[rng.Intn(poolSize)])
			}
		}(int64(1000 + r))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pool := pools[w]
			live := make(map[uint64]struct{}, poolSize)
			inserted := make([]uint64, 0, poolSize)
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(10); {
				case op < 5 && len(inserted) < poolSize: // insert a fresh key
					k := pool[len(inserted)]
					if err := s.Insert(k); err != nil {
						t.Errorf("worker %d: insert: %v", w, err)
						return
					}
					inserted = append(inserted, k)
					live[k] = struct{}{}
				case op < 7 && len(live) > 0: // delete a live key
					for k := range live {
						if err := s.Delete(k); err != nil {
							t.Errorf("worker %d: delete: %v", w, err)
							return
						}
						delete(live, k)
						break
					}
				case len(live) > 0: // probe a live key: must be present
					k := inserted[rng.Intn(len(inserted))]
					if _, isLive := live[k]; isLive && !s.Contains(k) {
						t.Errorf("worker %d: false negative on live key %d", w, k)
						return
					}
				}
			}
			// Final sweep: every live key visible.
			for k := range live {
				if !s.Contains(k) {
					t.Errorf("worker %d: false negative on %d in final sweep", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
}
