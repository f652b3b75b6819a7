package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"beyondbloom/internal/workload"
)

// seedMapletStore seeds a PolicyMaplet store the way `filterd build
// -store -policy maplet` does: n workload keys (seed 42, value = key)
// under default options, then one Flush.
func seedMapletStore(comp CompactionPolicy, n int) *Store {
	s := New(Options{Policy: PolicyMaplet, Compaction: comp})
	for _, k := range workload.Keys(n, 42) {
		s.Put(k, k)
	}
	s.Flush()
	return s
}

// churnMapletStore overwrites a quarter of the seeded keys, deletes
// another quarter, adds n/4 fresh keys, and flushes.
func churnMapletStore(s *Store, n int) {
	for i, k := range workload.Keys(n, 42) {
		switch i % 4 {
		case 1:
			s.Put(k, k^0x5555)
		case 2:
			s.Delete(k)
		}
	}
	for _, k := range workload.DisjointKeys(n/4, 42) {
		s.Put(k, k)
	}
	s.Flush()
}

// dirHash hashes a saved store directory: every file's name, length
// and bytes, in name order.
func dirHash(t *testing.T, dir string) string {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", de.Name(), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mapletHash hashes the maplet's logical content: every (fingerprint,
// value) entry in order, then its footprint. Unlike the image it
// ignores the stale payload bits a freed slot keeps.
func mapletHash(s *Store) string {
	h := sha256.New()
	var b [8]byte
	for _, e := range s.maplet.m.Entries() {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], e.Fingerprint))
		h.Write(binary.LittleEndian.AppendUint64(b[:0], e.Value))
	}
	fmt.Fprintf(h, "size %d", s.maplet.SizeBits())
	return hex.EncodeToString(h.Sum(nil))
}

// TestMapletStoreImageGolden pins compaction's maplet maintenance and
// the saved image: a seeded store saves byte for byte the same image
// (run files, manifest counters, maplet image), and after
// overwrite/delete churn the maplet holds the same entries in the same
// footprint. The hashes were first taken from the two-merge,
// delete-then-put implementation the single merge replaced, and
// re-captured once when slots dropped their block offsets for a
// fingerprint and a run id alone.
func TestMapletStoreImageGolden(t *testing.T) {
	const n = 1 << 14
	for _, tc := range []struct {
		name         string
		comp         CompactionPolicy
		image, churn string
	}{
		{"leveling", Leveling,
			"fe44757a0d095058f3af9ec984600e4720ee8ac138d7c811ae0bcb192b3d9f54",
			"82bed5a6ea06051b8d8f56053a6ad7c5a7287e762f7890b79a730122637fcac8"},
		{"tiering", Tiering,
			"978888f9670b766aee4ce99a2f7defe3c37fd196983a66043dc999c234fce7f8",
			"8711e8d09d55b054aecb95f9d5bb162527f507593be8b48b4d3c57d6833efbf1"},
		{"lazy-leveling", LazyLeveling,
			"1377e05fb722f5b2ccd76a1ea0d4d14d74e5bbf9fcc21237f820a76a2231c29b",
			"f84e370300c0b36eb5a5d83ee22e03cb9ce0604acab7a5e3bce55f33c4a1230c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := seedMapletStore(tc.comp, n)
			dir := t.TempDir()
			if err := s.Save(dir); err != nil {
				t.Fatal(err)
			}
			if got := dirHash(t, dir); got != tc.image {
				t.Errorf("seeded image hash %s, want %s", got, tc.image)
			}
			churnMapletStore(s, n)
			if got := mapletHash(s); got != tc.churn {
				t.Errorf("maplet hash after churn %s, want %s", got, tc.churn)
			}
			if m := s.MapletDeleteMisses(); m != 0 {
				t.Errorf("%d maplet delete misses, want 0", m)
			}
		})
	}
}

// TestDrainKeepsMapletGeometry pins that a compaction without fresh
// keys only edits the maplet in place. Level 0's runs (one of them
// overwriting another's keys) drain into level 1 with the maplet
// stuffed past its expansion load: a single Put, or a delete-then-put,
// would double it. Its footprint must not change, and it must lose
// exactly the shadowed versions.
func TestDrainKeepsMapletGeometry(t *testing.T) {
	s := New(Options{Policy: PolicyMaplet, MemtableSize: 64, Compaction: Tiering})
	keys := workload.Keys(128, 71)
	model := make(map[uint64]uint64)
	for i, k := range keys {
		s.Put(k, uint64(i))
		model[k] = uint64(i)
	}
	for _, k := range keys[:40] {
		s.Put(k, k)
		model[k] = k
	}
	s.Flush()
	if len(s.tree) != 1 || len(s.tree[0]) != 3 {
		t.Fatalf("want 3 level-0 runs, tree has %d levels", len(s.tree))
	}
	for _, k := range workload.DisjointKeys(1<<13, 71) {
		if s.maplet.m.LoadFactor() > mapletMaxLoad+0.01 {
			break
		}
		if err := s.maplet.m.Put(k, s.idLimit-1); err != nil {
			t.Fatal(err)
		}
	}
	size, n := s.maplet.SizeBits(), s.maplet.Len()
	runs := s.tree[0]
	s.tree[0] = nil
	s.pushRun(nil, runs, 1)
	if got := s.maplet.SizeBits(); got != size {
		t.Fatalf("drain changed the maplet footprint %d -> %d bits", size, got)
	}
	if got := s.maplet.Len(); got != n-40 {
		t.Fatalf("maplet Len %d -> %d, want the 40 shadowed versions gone", n, got)
	}
	if m := s.MapletDeleteMisses(); m != 0 {
		t.Fatalf("%d maplet delete misses", m)
	}
	s.mu.Lock()
	s.publishLocked(nil)
	s.mu.Unlock()
	for k, want := range model {
		if got, ok := s.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
}

// leveledCycle returns a Leveling store one memtable short of a full
// flush-and-compact cycle, and that memtable: its flush merges into
// level 0's run, which then outgrows its capacity and drains into level
// 1's run.
func leveledCycle(pol FilterPolicy) (*Store, *memRun) {
	const mt = 1024
	s := New(Options{Policy: pol, MemtableSize: mt})
	keys := workload.Keys(10*mt, 5)
	for _, k := range keys[:9*mt] {
		s.Put(k, k)
	}
	fm := &memRun{entries: make(map[uint64]Entry, mt)}
	for _, k := range keys[9*mt:] {
		fm.entries[k] = Entry{Key: k, Value: k}
	}
	return s, fm
}

// TestCompactionScratchIsOutputOnly pins what one leveled
// flush-and-compact cycle allocates: the sorted memtable, each merged
// run's entries (at most the sum of its inputs) and its filter, and
// nothing else of the output's size — no copied key list, no value
// arena, no per-key edit list.
func TestCompactionScratchIsOutputOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, pol := range []FilterPolicy{PolicyBloom, PolicyMaplet} {
		cycles := make([]func(), 3)
		for i := range cycles {
			s, fm := leveledCycle(pol)
			cycles[i] = func() { s.flushMem(fm); s.compact() }
		}
		next := 0
		allocs := testing.AllocsPerRun(1, func() { cycles[next](); next++ })

		s, fm := leveledCycle(pol)
		if len(s.tree) != 2 || len(s.tree[0]) != 1 || len(s.tree[1]) != 1 {
			t.Fatalf("policy %d: unexpected tree shape before the cycle", pol)
		}
		mem := len(fm.entries)
		merged := mem + len(s.tree[0][0].entries)     // flush into level 0
		drained := merged + len(s.tree[1][0].entries) // level 0 into level 1
		budget := int(unsafe.Sizeof(Entry{}))*(mem+merged+drained) + 16<<10
		if pol == PolicyBloom {
			budget += int(float64(merged+drained)*s.opts.BitsPerKey/8) + 1<<10
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.flushMem(fm)
		s.compact()
		runtime.ReadMemStats(&after)
		if len(s.tree[0]) != 0 || len(s.tree[1][0].entries) != drained {
			t.Fatalf("policy %d: cycle did not drain level 0 into level 1", pol)
		}
		bytes := int(after.TotalAlloc - before.TotalAlloc)
		t.Logf("policy %d: one cycle allocates %d objects (AllocsPerRun), %d bytes (budget %d)", pol, int(allocs), bytes, budget)
		if bytes > budget {
			t.Errorf("policy %d: one cycle allocates %d bytes, budget %d", pol, bytes, budget)
		}
	}
}

// BenchmarkStoreSeed times seeding a PolicyMaplet store the way
// `filterd build -store -policy maplet` does, per key. With -short only
// the smallest size runs.
func BenchmarkStoreSeed(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 15, 1 << 17} {
		if testing.Short() && n > 1<<13 {
			break
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedMapletStore(Leveling, n)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/key")
		})
	}
}
