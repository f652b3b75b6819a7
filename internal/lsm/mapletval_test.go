package lsm

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"beyondbloom/internal/fault"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// These tests pin the maplet slot layout: a slot holds a fingerprint
// and a run id and nothing else, so keys colliding in one run hold
// identical entries, run ids must stay inside the derived width, and
// the run's radix start table must find every key's span.

// collidingPair returns two distinct keys whose maplet fingerprints
// are equal, found by a birthday search over workload keys. The
// fingerprint is q+r bits at every doubling, so a one-key probe maplet
// with the store's initial geometry reads it off its Entries.
func collidingPair(t testing.TB) (uint64, uint64) {
	t.Helper()
	probe := quotient.NewMaplet(mapletQ0, mapletR0, 1)
	seen := make(map[uint64]uint64)
	for _, k := range workload.Keys(1<<17, 97) {
		if err := probe.Put(k, 1); err != nil {
			t.Fatal(err)
		}
		fp := probe.Entries()[0].Fingerprint
		if err := probe.Delete(k, 1); err != nil {
			t.Fatal(err)
		}
		if other, ok := seen[fp]; ok {
			return other, k
		}
		seen[fp] = k
	}
	t.Fatal("no fingerprint collision among 2^17 keys")
	return 0, 0
}

// duplicateEntries counts maplet entries equal to their predecessor:
// two keys colliding in one run.
func duplicateEntries(s *Store) int {
	es := s.maplet.m.Entries()
	dups := 0
	for i := 1; i < len(es); i++ {
		if es[i] == es[i-1] {
			dups++
		}
	}
	return dups
}

// TestMapletCollidingEntries writes two keys whose fingerprints collide
// into one memtable, so they share every run they are ever in and hold
// identical (fingerprint, run id) entries. Under each compaction policy
// both read back; compactions that move them both keep both; deleting
// one and compacting its tombstone away keeps the other. Every step
// leaves zero delete misses and one maplet entry per live key.
func TestMapletCollidingEntries(t *testing.T) {
	a, b := collidingPair(t)
	for _, comp := range []CompactionPolicy{Leveling, Tiering, LazyLeveling} {
		s := New(Options{Policy: PolicyMaplet, MemtableSize: 32, Compaction: comp})
		model := map[uint64]uint64{a: 1, b: 2}
		s.Put(a, 1)
		s.Put(b, 2)
		fill := workload.DisjointKeys(1<<14, 97)
		next := 0
		add := func(n int) {
			for ; n > 0; n-- {
				k := fill[next]
				next++
				if k == a || k == b {
					continue
				}
				s.Put(k, k)
				model[k] = k
			}
			s.Flush()
		}
		check := func(step string) {
			t.Helper()
			for k, want := range model {
				if got, ok := s.Get(k); !ok || got != want {
					t.Fatalf("comp=%d %s: Get(%d) = (%d, %v), want (%d, true)", comp, step, k, got, ok, want)
				}
			}
			if m := s.MapletDeleteMisses(); m != 0 {
				t.Fatalf("comp=%d %s: %d maplet delete misses", comp, step, m)
			}
			if got := s.maplet.Len(); got != len(model) {
				t.Fatalf("comp=%d %s: maplet Len %d, want %d live keys", comp, step, got, len(model))
			}
		}
		add(20)
		if duplicateEntries(s) == 0 {
			t.Fatalf("comp=%d: the colliding pair left no identical maplet entries", comp)
		}
		check("seeded")
		pairRun := func() *run {
			for _, level := range s.view.Load().levels {
				for _, r := range level {
					if _, ok := search(r.entries, a); ok {
						return r
					}
				}
			}
			return nil
		}
		before := pairRun()
		for moves := 0; pairRun() == before; moves++ {
			if moves > 64 {
				t.Fatalf("comp=%d: no compaction moved the pair's run", comp)
			}
			add(32)
		}
		check("moved")
		s.Delete(a)
		delete(model, a)
		for flushes := 0; s.maplet.Len() != len(model); flushes++ {
			if flushes > 1024 {
				t.Fatalf("comp=%d: the tombstone of %d was never compacted away", comp, a)
			}
			add(32)
		}
		if _, ok := s.Get(a); ok {
			t.Fatalf("comp=%d: deleted key %d reads back", comp, a)
		}
		check("one deleted")
	}
}

// maxL0RunBudget returns the largest L0RunBudget NewStore accepts for
// opts, checking that the next one is refused with an error.
func maxL0RunBudget(t *testing.T, opts Options) int {
	t.Helper()
	budget := defaultL0RunBudget
	for ; ; budget++ {
		opts.L0RunBudget = budget + 1
		if _, err := NewStore(opts); err != nil {
			return budget
		}
		if budget > 1<<20 {
			t.Fatal("NewStore accepts any L0RunBudget for a maplet store")
		}
	}
}

// TestRunIDBound churns Background maplet stores — each compaction
// policy, at the default L0RunBudget and at the largest NewStore
// accepts, snapshot-only and durable — through several maplet
// doublings with concurrent readers, and checks no run id ever reaches
// 2^w. Options whose runs cannot fit a slot's run id are an error from
// NewStore, not a panic.
func TestRunIDBound(t *testing.T) {
	refused := []Options{{Policy: PolicyMaplet, L0RunBudget: 1 << 20}}
	if strconv.IntSize == 64 {
		refused = append(refused,
			Options{Policy: PolicyMaplet, Compaction: Tiering, SizeRatio: 1 << (strconv.IntSize - 19)}, // 2^45
			Options{Policy: PolicyMaplet, Compaction: LazyLeveling, SizeRatio: math.MaxInt})
	} else {
		t.Log("no SizeRatio names more runs than a 42-bit run id where int is 32 bits wide: those cases are 64-bit only")
	}
	for _, opts := range refused {
		if _, err := NewStore(opts); err == nil {
			t.Errorf("NewStore(%+v) accepted options whose run ids cannot fit", opts)
		}
	}
	const memtable = 16
	for _, comp := range []CompactionPolicy{Leveling, Tiering, LazyLeveling} {
		base := Options{Policy: PolicyMaplet, MemtableSize: memtable, Compaction: comp}
		for _, budget := range []int{defaultL0RunBudget, maxL0RunBudget(t, base)} {
			for _, durable := range []bool{false, true} {
				opts := base
				opts.L0RunBudget, opts.Background = budget, true
				n := 1 << 14
				var s *Store
				var err error
				if durable {
					opts.Durability, opts.FS = DurabilityBuffered, fault.NewCrashFS(1)
					n = 1 << 12
					s, err = OpenStore("db", opts)
				} else {
					s, err = NewStore(opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				churnWithReaders(t, s, n)
				s.idMu.Lock()
				top := s.nextID
				s.idMu.Unlock()
				if w := s.maplet.m.ValueBits(); top >= s.idLimit || s.idLimit != 1<<w {
					t.Fatalf("comp=%d budget=%d durable=%v: minted run id %d, limit %d (w=%d)",
						comp, budget, durable, top, s.idLimit, w)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRunIDBoundDeepTiering rewrites four keys with a Put and a Flush
// per cycle in a Background Tiering store, whose levels open by run
// count while the maplet stays tiny. MemtableSize 2^20 and SizeRatio 7
// leave the least slack: 5-bit ids, three levels' worth, and the
// largest L0RunBudget filling the rest. Past 7^4 flushes an uncapped
// tree reaches depth five, and before 7^5 it runs out of ids; a capped
// one stays at its mapletDepth and keeps every key readable.
func TestRunIDBoundDeepTiering(t *testing.T) {
	base := Options{Policy: PolicyMaplet, MemtableSize: 1 << 20, SizeRatio: 7, Compaction: Tiering}
	opts := base
	opts.L0RunBudget, opts.Background = maxL0RunBudget(t, base), true
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const cycles = 7 * 7 * 7 * 7 * 7
	for c := 0; c < cycles; c++ {
		for k := uint64(1); k <= 4; k++ {
			s.Put(k, uint64(c))
		}
		s.Flush()
	}
	s.idMu.Lock()
	top := s.nextID
	s.idMu.Unlock()
	if w := s.maplet.m.ValueBits(); w != 5 || top >= s.idLimit {
		t.Fatalf("minted run id %d, limit %d (w=%d, want 5)", top, s.idLimit, w)
	}
	if depth := len(s.view.Load().levels); depth > s.maxDepth {
		t.Fatalf("tree depth %d, cap %d", depth, s.maxDepth)
	}
	for k := uint64(1); k <= 4; k++ {
		if v, ok := s.Get(k); !ok || v != uint64(cycles-1) {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, v, ok, cycles-1)
		}
	}
}

// churnWithReaders puts, overwrites and deletes n keys from two
// writers while two readers look them up in batches, then flushes.
// Every value written is the key itself or below n, so a reader spots
// any other value as a misrouted read.
func churnWithReaders(t *testing.T, s *Store, n int) {
	t.Helper()
	keys := workload.Keys(n, 53)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 2 {
				k := keys[i]
				s.Put(k, k)
				if i%5 == 0 {
					s.Put(keys[i/2], uint64(i))
				}
				if i%7 == 0 {
					s.Delete(keys[i/3])
				}
			}
		}(w)
	}
	var bad atomic.Uint64
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			vals, found := make([]uint64, 64), make([]bool, 64)
			batch := make([]uint64, 64)
			for !stop.Load() {
				for i := range batch {
					batch[i] = keys[rng.Intn(len(keys))]
				}
				s.GetBatch(batch, vals, found)
				for i, k := range batch {
					if found[i] && vals[i] != k && vals[i] >= uint64(len(keys)) {
						bad.Store(k)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	s.Flush()
	stop.Store(true)
	rg.Wait()
	if k := bad.Load(); k != 0 {
		t.Fatalf("key %d read back a value no writer put", k)
	}
	if m := s.MapletDeleteMisses(); m != 0 {
		t.Fatalf("%d maplet delete misses", m)
	}
}

// TestRunIndexMatchesSearch builds runs of uniform, clustered and
// skewed keys — sizes 1 to 3 and 2^15, a single key, keys at 0 and
// MaxUint64 — and checks every present key lies in its span, that
// searchBlocks over the span answers exactly as a whole-run search
// for present and absent keys, and that under every policy every run of
// a flushed and of a reopened store has a table, which FilterMemoryBits
// counts.
func TestRunIndexMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := map[string][]uint64{
		"one":       {42},
		"zero":      {0},
		"max":       {math.MaxUint64},
		"two-ends":  {0, math.MaxUint64},
		"three":     {7, 8, 1 << 40},
		"dense":     nil,
		"uniform":   nil,
		"clustered": nil,
		"skewed":    nil,
	}
	for i := uint64(0); i < 1<<15; i++ {
		sets["dense"] = append(sets["dense"], 1000+i)
		sets["uniform"] = append(sets["uniform"], rng.Uint64())
		// 16 tight clusters spread over the key space.
		sets["clustered"] = append(sets["clustered"], uint64(i%16)<<60|uint64(rng.Intn(1<<20)))
		// Zipf-like: most keys tiny, a few enormous.
		sets["skewed"] = append(sets["skewed"], uint64(math.Pow(2, 63*math.Pow(rng.Float64(), 8))))
	}
	sets["uniform"] = append(sets["uniform"], 0, math.MaxUint64)
	for name, keys := range sets {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		r := &run{}
		for i, k := range keys {
			if i == 0 || k != keys[i-1] {
				r.entries = append(r.entries, Entry{Key: k, Value: k ^ 0xA5})
			}
		}
		r.index()
		if want := entriesPerBlock * (len(r.start) - 1); len(r.entries) > want || (want > entriesPerBlock && 2*len(r.entries) <= want) {
			t.Errorf("%s: %d buckets for %d entries", name, len(r.start)-1, len(r.entries))
		}
		probes := make([]uint64, 0, 4*len(r.entries)+2)
		for _, e := range r.entries {
			probes = append(probes, e.Key, e.Key-1, e.Key+1, rng.Uint64())
			if _, ok := search(r.span(e.Key), e.Key); !ok {
				t.Fatalf("%s: key %d outside its span", name, e.Key)
			}
		}
		probes = append(probes, 0, math.MaxUint64)
		var recs []readRec
		for _, k := range probes {
			if base, n := r.bounds(k); n > 0 {
				recs = append(recs, readRec{key: k, base: base, n: n})
			} else if _, ok := search(r.entries, k); ok {
				t.Fatalf("%s: key %d has an empty span", name, k)
			}
		}
		searchBlocks(recs, r.entries)
		for _, p := range recs {
			got, gok := r.entries[p.base], r.entries[p.base].Key == p.key
			want, wok := search(r.entries, p.key)
			if gok != wok || (gok && got != want) {
				t.Fatalf("%s key %d: span search (%v,%v), whole run (%v,%v)", name, p.key, got, gok, want, wok)
			}
		}
	}

	for p := PolicyNone; p <= PolicyMaplet; p++ {
		s := New(Options{Policy: p, MemtableSize: 256})
		for _, k := range workload.Keys(20000, 3) {
			s.Put(k, k)
		}
		s.Flush()
		checkRunTables(t, s)
		checkRunTables(t, reopen(t, s, Options{}))
	}
}

// checkRunTables fails unless every run of s has a radix start table
// and FilterMemoryBits is the maplet plus the per-run filters plus the
// tables.
func checkRunTables(t *testing.T, s *Store) {
	t.Helper()
	want, runs := 0, 0
	if s.maplet != nil {
		want = s.maplet.SizeBits()
	}
	for _, level := range s.view.Load().levels {
		for _, r := range level {
			if len(r.start) < 2 {
				t.Fatalf("policy %d: run %d has no radix table", s.opts.Policy, r.id)
			}
			if r.filter != nil {
				want += r.filter.SizeBits()
			}
			want += 32 * len(r.start)
			runs++
		}
	}
	if runs == 0 {
		t.Fatalf("policy %d: no runs", s.opts.Policy)
	}
	if got := s.FilterMemoryBits(); got != want {
		t.Fatalf("policy %d: FilterMemoryBits = %d, want %d", s.opts.Policy, got, want)
	}
}
