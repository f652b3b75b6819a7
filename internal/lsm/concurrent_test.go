package lsm

import (
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"beyondbloom/internal/fault"
)

// TestNewStoreValidation: NewStore rejects configurations the engine
// cannot operate under instead of misbehaving later.
func TestNewStoreValidation(t *testing.T) {
	bad := []Options{
		{MemtableSize: -1},
		{SizeRatio: -2},
		{SizeRatio: 1},
		{BitsPerKey: -3},
		{MonkeyBaseFPR: -0.5},
		{MonkeyBaseFPR: 1.5},
		{Policy: FilterPolicy(99)},
		{Compaction: CompactionPolicy(99)},
		{L0RunBudget: -1},
		// Filter budgets the first flush's Bloom constructor would panic on.
		{Policy: PolicyBloom, BitsPerKey: 2000},
		{Policy: PolicyBloom, BitsPerKey: math.NaN()},
		{Policy: PolicyMonkey, MonkeyBaseFPR: math.NaN()},
	}
	for _, opts := range bad {
		if _, err := NewStore(opts); err == nil {
			t.Errorf("NewStore(%+v) accepted invalid options", opts)
		}
	}
	// Zero values select defaults and must be accepted.
	s, err := NewStore(Options{})
	if err != nil {
		t.Fatalf("NewStore(zero) = %v", err)
	}
	if s == nil {
		t.Fatal("NewStore(zero) returned nil store")
	}
	// New panics on the same inputs NewStore rejects.
	defer func() {
		if recover() == nil {
			t.Fatal("New(L0RunBudget:-1) did not panic")
		}
	}()
	New(Options{L0RunBudget: -1})
}

// TestCloseIdempotentAndSyncAfterClose: Close drains the background
// engine, can be called twice, and leaves the store usable (synchronous
// flushes) afterwards.
func TestCloseIdempotentAndSyncAfterClose(t *testing.T) {
	s := New(Options{MemtableSize: 16, Background: true})
	for i := uint64(0); i < 100; i++ {
		s.Put(i, i*3)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if len(s.view.Load().frozen) != 0 {
		t.Fatal("Close left frozen memtables behind")
	}
	for i := uint64(100); i < 200; i++ {
		s.Put(i, i*3)
	}
	s.Flush()
	for i := uint64(0); i < 200; i++ {
		if v, ok := s.Get(i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v after Close", i, v, ok)
		}
	}
}

// TestBackgroundFlushWaits: Flush on a Background store blocks until
// the worker has drained every frozen memtable.
func TestBackgroundFlushWaits(t *testing.T) {
	s := New(Options{MemtableSize: 32, Background: true, L0RunBudget: 4})
	defer s.Close()
	for i := uint64(0); i < 1000; i++ {
		s.Put(i, i+7)
	}
	s.Flush()
	if n := len(s.view.Load().frozen); n != 0 {
		t.Fatalf("Flush returned with %d frozen memtables pending", n)
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := s.Get(i); !ok || v != i+7 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestScanRacingCompaction: a key deleted before a scan starts must
// never appear in that scan's results, even while background flushes
// and compactions continuously rewrite the tree underneath it. This
// pins the snapshot-scan dedup: the scan resolves each key once against
// one consistent view, so a tombstone shadows every older version of
// its key regardless of which run the compaction has moved it to.
func TestScanRacingCompaction(t *testing.T) {
	const n = 2000
	s := New(Options{MemtableSize: 64, SizeRatio: 4, Background: true, L0RunBudget: 4})
	defer s.Close()
	for i := uint64(1); i <= n; i++ {
		s.Put(i, i*10)
	}
	s.Flush()
	for i := uint64(2); i <= n; i += 2 {
		s.Delete(i)
	}

	// Churn writer: keys above the scanned range, forcing continuous
	// flush + compaction while the scans run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := uint64(n + 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Put(k, k)
			k++
		}
	}()

	for round := 0; round < 200; round++ {
		got := s.Scan(1, n)
		seen := make(map[uint64]bool, len(got))
		for i, e := range got {
			if i > 0 && got[i-1].Key >= e.Key {
				t.Fatalf("round %d: scan out of order at %d", round, i)
			}
			if e.Key%2 == 0 {
				t.Fatalf("round %d: deleted key %d resurfaced in scan", round, e.Key)
			}
			if e.Value != e.Key*10 {
				t.Fatalf("round %d: key %d has value %d, want %d", round, e.Key, e.Value, e.Key*10)
			}
			seen[e.Key] = true
		}
		for i := uint64(1); i <= n; i += 2 {
			if !seen[i] {
				t.Fatalf("round %d: live key %d missing from scan", round, i)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// chaosKeyState tracks one key's externally visible history: writers
// advance it only after the store operation returns, so any reader that
// observes the new state is ordered after the store mutation and can
// assert exact results.
const (
	chaosUnwritten = int32(iota)
	chaosWritten
	chaosDeleted
)

func chaosValue(k uint64) uint64 { return k*2654435761 + 1 }

// TestChaosConcurrentStore is the -race chaos test: concurrent writers,
// deleters, point readers, batch readers, scanners, and a Save loop,
// all against a store whose device and filter blocks fault — asserting
// exact results (no false negatives, no wrong values) for every
// operation whose ordering is established.
func TestChaosConcurrentStore(t *testing.T) {
	for _, pc := range []struct {
		name   string
		policy FilterPolicy
	}{
		{"monkey", PolicyMonkey},
		{"maplet", PolicyMaplet},
	} {
		t.Run(pc.name, func(t *testing.T) {
			const (
				writers       = 4
				keysPerWriter = 3000
				total         = writers * keysPerWriter
				deleteEvery   = 3
			)
			s := New(Options{
				MemtableSize: 128,
				SizeRatio:    4,
				Policy:       pc.policy,
				Background:   true,
				L0RunBudget:  6,
				DeviceFaults: fault.NewInjector(42, fault.Transient(0.05), fault.BitFlip(0.02)),
				FilterFaults: fault.NewInjector(43, fault.Transient(0.05)),
			})
			defer s.Close()

			state := make([]atomic.Int32, total)
			var wg sync.WaitGroup

			// Writers: each owns the disjoint key range [w*keysPerWriter,
			// (w+1)*keysPerWriter); every key is written once, and every
			// deleteEvery-th key deleted once afterwards.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := w * keysPerWriter
					for i := 0; i < keysPerWriter; i++ {
						k := uint64(base + i)
						s.Put(k, chaosValue(k))
						state[base+i].Store(chaosWritten)
						if i%deleteEvery == 0 {
							s.Delete(k)
							state[base+i].Store(chaosDeleted)
						}
					}
				}(w)
			}

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			// deleteEligible keys get a Delete right after their Put; for
			// those, observing state "written" is inconclusive about
			// presence (the delete may have applied before the flag
			// advanced), so only never-deleted keys assert a mandatory hit.
			deleteEligible := func(k uint64) bool {
				return (k%keysPerWriter)%deleteEvery == 0
			}
			var readers sync.WaitGroup
			checkKey := func(k uint64, v uint64, ok, observed bool, st int32) {
				switch {
				case observed && st == chaosWritten && !deleteEligible(k):
					if !ok {
						t.Errorf("false negative: key %d written but not found", k)
					} else if v != chaosValue(k) {
						t.Errorf("key %d = %d, want %d", k, v, chaosValue(k))
					}
				case observed && st == chaosDeleted:
					if ok {
						t.Errorf("key %d deleted but still found (=%d)", k, v)
					}
				default: // in-flight or delete-pending: a hit must still carry the right value
					if ok && v != chaosValue(k) {
						t.Errorf("key %d = %d, want %d", k, v, chaosValue(k))
					}
				}
			}

			// Point readers.
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(seed uint64) {
					defer readers.Done()
					rng := seed
					for {
						select {
						case <-done:
							return
						default:
						}
						rng = rng*6364136223846793005 + 1442695040888963407
						k := rng % total
						st := state[k].Load() // observe BEFORE the read
						v, ok := s.Get(k)
						checkKey(k, v, ok, st != chaosUnwritten, st)
					}
				}(uint64(r + 1))
			}

			// Batch reader.
			readers.Add(1)
			go func() {
				defer readers.Done()
				keys := make([]uint64, 64)
				vals := make([]uint64, 64)
				found := make([]bool, 64)
				states := make([]int32, 64)
				rng := uint64(99)
				for {
					select {
					case <-done:
						return
					default:
					}
					for i := range keys {
						rng = rng*6364136223846793005 + 1442695040888963407
						keys[i] = rng % total
						states[i] = state[keys[i]].Load()
					}
					s.GetBatch(keys, vals, found)
					for i, k := range keys {
						checkKey(k, vals[i], found[i], states[i] != chaosUnwritten, states[i])
					}
				}
			}()

			// Scanner: keys observed written (and not deleted) before the
			// scan must appear; keys observed deleted must not.
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					lo := uint64(0)
					hi := uint64(total - 1)
					pre := make([]int32, total)
					for i := range pre {
						pre[i] = state[i].Load()
					}
					got := s.Scan(lo, hi)
					present := make(map[uint64]uint64, len(got))
					for i, e := range got {
						if i > 0 && got[i-1].Key >= e.Key {
							t.Error("scan output not strictly ascending")
							return
						}
						present[e.Key] = e.Value
					}
					for k := range pre {
						switch pre[k] {
						case chaosWritten:
							// For delete-eligible keys the flag may lag the
							// writer's Delete, so absence is inconclusive.
							v, ok := present[uint64(k)]
							if !ok {
								if !deleteEligible(uint64(k)) {
									t.Errorf("scan lost written key %d", k)
									return
								}
							} else if v != chaosValue(uint64(k)) {
								t.Errorf("scan key %d = %d, want %d", k, v, chaosValue(uint64(k)))
								return
							}
						case chaosDeleted:
							if _, ok := present[uint64(k)]; ok {
								t.Errorf("scan resurfaced deleted key %d", k)
								return
							}
						}
					}
					runtime.Gosched()
				}
			}()

			// Save loop: serializing a pinned snapshot mid-churn must not
			// fail, and the saved image must reopen cleanly.
			dir := t.TempDir()
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if err := s.Save(dir); err != nil {
						t.Errorf("Save mid-churn: %v", err)
						return
					}
					runtime.Gosched()
				}
			}()

			wg.Wait()
			readers.Wait()
			s.Flush()

			// Quiesced: every key's final state must read back exactly.
			for k := 0; k < total; k++ {
				v, ok := s.Get(uint64(k))
				switch state[k].Load() {
				case chaosWritten:
					if !ok || v != chaosValue(uint64(k)) {
						t.Fatalf("final: key %d = %d,%v want %d,true", k, v, ok, chaosValue(uint64(k)))
					}
				case chaosDeleted:
					if ok {
						t.Fatalf("final: deleted key %d still present", k)
					}
				}
			}

			// And the last saved snapshot reopens to a consistent store
			// (it may predate the final writes; every key it does hold
			// must carry the right value).
			if _, err := os.Stat(dir + "/" + ManifestName); err == nil {
				reopened, err := OpenStore(dir, Options{})
				if err != nil {
					t.Fatalf("OpenStore(chaos snapshot) = %v", err)
				}
				for _, e := range reopened.Scan(0, total-1) {
					if e.Value != chaosValue(e.Key) {
						t.Fatalf("reopened key %d = %d, want %d", e.Key, e.Value, chaosValue(e.Key))
					}
				}
			}
		})
	}
}

// TestWriteStallBackpressure: with a tiny L0 budget the writer must
// stall rather than grow the frozen backlog without bound.
func TestWriteStallBackpressure(t *testing.T) {
	s := New(Options{MemtableSize: 16, Background: true, L0RunBudget: 2})
	defer s.Close()
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}
	s.mu.RLock()
	backlog := len(s.view.Load().frozen)
	s.mu.RUnlock()
	if backlog > s.opts.L0RunBudget+1 {
		t.Fatalf("frozen backlog %d exceeds budget %d", backlog, s.opts.L0RunBudget)
	}
	s.Flush()
	for i := uint64(0); i < 5000; i++ {
		if v, ok := s.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestBackgroundMatchesSyncResults: the background engine must converge
// to the same logical contents as the synchronous engine for the same
// operation sequence (I/O order may differ; answers may not).
func TestBackgroundMatchesSyncResults(t *testing.T) {
	for _, pol := range []FilterPolicy{PolicyNone, PolicyBloom, PolicyMonkey, PolicyMaplet} {
		sync1 := New(Options{MemtableSize: 64, Policy: pol})
		bg := New(Options{MemtableSize: 64, Policy: pol, Background: true})
		for i := uint64(0); i < 4000; i++ {
			sync1.Put(i, i*5)
			bg.Put(i, i*5)
			if i%7 == 0 {
				sync1.Delete(i)
				bg.Delete(i)
			}
		}
		sync1.Flush()
		bg.Flush()
		bg.Close()
		for i := uint64(0); i < 4000; i++ {
			v1, ok1 := sync1.Get(i)
			v2, ok2 := bg.Get(i)
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("policy %d key %d: sync %d,%v bg %d,%v", pol, i, v1, ok1, v2, ok2)
			}
		}
		a, b := sync1.Scan(0, 4000), bg.Scan(0, 4000)
		if len(a) != len(b) {
			t.Fatalf("policy %d: scan lengths %d vs %d", pol, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("policy %d: scan diverges at %d: %+v vs %+v", pol, i, a[i], b[i])
			}
		}
	}
}
