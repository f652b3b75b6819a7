package concurrent

import (
	"sync"
	"sync/atomic"
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/workload"
)

func newShardedCuckoo(t testing.TB, logShards uint, perShard int) *Sharded {
	t.Helper()
	s, err := NewSharded(logShards, func(int) core.DeletableFilter {
		return cuckoo.New(perShard, 14)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedContainsBatchMatchesScalar(t *testing.T) {
	const n = 20000
	s := newShardedCuckoo(t, 4, n)
	keys := workload.Keys(n, 11)
	for _, k := range keys[:n/2] {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	probes := append(append([]uint64{}, keys...), workload.DisjointKeys(n, 11)...)
	out := make([]bool, len(probes))
	s.ContainsBatch(probes, out)
	for i, k := range probes {
		if out[i] != s.Contains(k) {
			t.Fatalf("batch/scalar disagree for key %d at %d", k, i)
		}
	}
}

// TestShardedInsertBatchMatchesScalar checks that a batched insert
// leaves every shard as scalar inserts do: through the blocked Bloom
// kernel (answers identical to a scalar-built twin on present and
// absent keys) and through the scalar fallback for cuckoo and
// two-choice blocked shards. Each batch-built filter's ContainsBatch
// must also agree with its Contains, the two-choice shards' batched
// probe included (the registry fixture's shards are cuckoo).
func TestShardedInsertBatchMatchesScalar(t *testing.T) {
	const n = 5000
	newMutable := func(shard func(int) core.MutableFilter) *Sharded {
		s, err := NewShardedMutable(3, shard)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	blocked := func(int) core.MutableFilter { return bloom.NewBlocked(n, 10) }
	choices := func(int) core.MutableFilter { return bloom.NewBlockedChoices(n, 10) }
	keys := workload.Keys(n, 14)
	probes := append(append([]uint64{}, keys...), workload.DisjointKeys(4*n, 14)...)
	out := make([]bool, len(probes))
	for _, pair := range [][2]*Sharded{
		{newMutable(blocked), newMutable(blocked)},
		{newShardedCuckoo(t, 3, n), newShardedCuckoo(t, 3, n)},
		{newMutable(choices), newMutable(choices)},
	} {
		scalar, batch := pair[0], pair[1]
		for _, k := range keys {
			if err := scalar.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := batch.InsertBatch(keys); err != nil {
			t.Fatal(err)
		}
		batch.ContainsBatch(probes, out)
		for i, k := range probes {
			got, want := batch.Contains(k), scalar.Contains(k)
			if got != want || (i < n && !got) {
				t.Fatalf("%T shards, probe %d: batch-built %v, scalar-built %v", scalar.shards[0].f, i, got, want)
			}
			if out[i] != got {
				t.Fatalf("%T shards, probe %d: ContainsBatch %v, Contains %v", scalar.shards[0].f, i, out[i], got)
			}
		}
	}
}

// TestShardedInsertBatchUnderReaders runs batched writers beside
// batched readers on a sharded blocked Bloom filter. Every key of a
// batch whose InsertBatch has returned must be found from then on, by
// its writer and by every reader; -race must stay quiet.
func TestShardedInsertBatchUnderReaders(t *testing.T) {
	const n, size, writers = 8192, 512, 2
	s, err := NewShardedMutable(3, func(int) core.MutableFilter { return bloom.NewBlocked(writers*n/8, 12) })
	if err != nil {
		t.Fatal(err)
	}
	var streams [writers][]uint64
	var done [writers]atomic.Int64 // keys of stream w inserted so far
	for w := range streams {
		streams[w] = workload.Keys(n, uint64(30+w))
	}
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(keys []uint64, done *atomic.Int64) {
			defer wg.Done()
			out := make([]bool, size)
			for at := 0; at < len(keys); at += size {
				batch := keys[at : at+size]
				if err := s.InsertBatch(batch); err != nil {
					t.Error(err)
					return
				}
				done.Store(int64(at + size))
				s.ContainsBatch(batch, out)
				for i, ok := range out {
					if !ok {
						t.Errorf("writer: false negative for key %d of batch at %d", i, at)
						return
					}
				}
			}
		}(streams[w], &done[w])
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]bool, n)
			for finished := false; !finished; {
				finished = true
				for w := range streams {
					m := done[w].Load()
					finished = finished && m == n
					s.ContainsBatch(streams[w][:m], out)
					for i, ok := range out[:m] {
						if !ok {
							t.Errorf("reader: false negative for key %d of stream %d", i, w)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedBatchUnderWriters drives batched readers concurrently with
// writers: keys inserted before the readers start must never be missed
// (no false negatives under concurrency), and -race must stay quiet.
func TestShardedBatchUnderWriters(t *testing.T) {
	const n = 8000
	s := newShardedCuckoo(t, 3, 4*n)
	stable := workload.Keys(n, 13)
	extra := workload.DisjointKeys(n, 13)
	for _, k := range stable {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, k := range extra {
			_ = s.Insert(k)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]bool, len(stable))
			for iter := 0; iter < 20; iter++ {
				s.ContainsBatch(stable, out)
				for i := range out {
					if !out[i] {
						t.Errorf("false negative for stable key %d", stable[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
