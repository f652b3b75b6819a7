package lsm

import (
	"errors"
	"testing"

	"beyondbloom/internal/fault"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// These tests pin the maplet-first read path: the global maplet maps
// key → (run, block offset) and is the store's primary index, so its
// maintenance protocol (edited in place by every compaction's merge)
// must keep it exactly in sync with the run tree, its lookups must be
// allocation-free, and its checkpoint image must reconstruct the exact
// same routing.

// TestMapletGetZeroAlloc pins the maplet lookups' allocation contract:
// at steady state (scratch pools warm) a Get allocates nothing, hit or
// miss, and neither does a 256-key GetBatch of hits and misses.
func TestMapletGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := New(Options{Policy: PolicyMaplet, MemtableSize: 256})
	keys := workload.Keys(5000, 17)
	for i, k := range keys {
		s.Put(k, uint64(i))
	}
	s.Flush()
	miss := workload.DisjointKeys(8, 17)
	s.Get(keys[0]) // warm the scratch pool
	if avg := testing.AllocsPerRun(200, func() {
		s.Get(keys[1])
		s.Get(keys[4000])
		s.Get(miss[3])
	}); avg != 0 {
		t.Fatalf("maplet Get allocates %.1f objects per 3 lookups, want 0", avg)
	}
	frame := workload.DisjointKeys(256, 17)
	for i := 0; i < len(frame); i += 2 {
		frame[i] = keys[i*7]
	}
	vals, found := make([]uint64, len(frame)), make([]bool, len(frame))
	s.GetBatch(frame, vals, found) // warm the batch scratch pools
	if avg := testing.AllocsPerRun(200, func() {
		s.GetBatch(frame, vals, found)
	}); avg != 0 {
		t.Fatalf("maplet GetBatch allocates %.1f objects per 256-key batch, want 0", avg)
	}
}

// TestMapletRemapKeepsIndexTight drives a churny workload (puts,
// overwrites, deletes) through many flushes and compactions in every
// compaction policy and asserts the remap protocol leaves the maplet
// exactly tight: one entry per run entry, zero best-effort delete
// misses, and correct lookups for present, overwritten, deleted, and
// absent keys.
func TestMapletRemapKeepsIndexTight(t *testing.T) {
	for _, comp := range []CompactionPolicy{Leveling, Tiering, LazyLeveling} {
		s := New(Options{Policy: PolicyMaplet, MemtableSize: 64, Compaction: comp})
		keys := workload.Keys(4000, 23)
		model := make(map[uint64]uint64, len(keys))
		for i, k := range keys {
			s.Put(k, uint64(i))
			model[k] = uint64(i)
			switch i % 7 {
			case 3: // overwrite an older key
				old := keys[i/2]
				s.Put(old, uint64(i)*13)
				model[old] = uint64(i) * 13
			case 5: // delete an older key
				old := keys[i/3]
				s.Delete(old)
				delete(model, old)
			}
		}
		s.Flush()
		if m := s.MapletDeleteMisses(); m != 0 {
			t.Fatalf("comp=%d: %d maplet delete misses, want 0", comp, m)
		}
		total := 0
		v := s.view.Load()
		for _, level := range v.levels {
			for _, r := range level {
				total += len(r.entries)
			}
		}
		if got := s.maplet.Len(); got != total {
			t.Fatalf("comp=%d: maplet holds %d entries, run tree holds %d", comp, got, total)
		}
		for k, want := range model {
			if got, ok := s.Get(k); !ok || got != want {
				t.Fatalf("comp=%d: key %d = %d, %v; want %d", comp, k, got, ok, want)
			}
		}
		for _, k := range workload.DisjointKeys(2000, 23) {
			if _, ok := s.Get(k); ok {
				t.Fatalf("comp=%d: phantom key %d", comp, k)
			}
		}
		if f := s.MapletFallbacks(); f != 0 {
			t.Fatalf("comp=%d: %d maplet fallbacks in single-threaded run, want 0", comp, f)
		}
	}
}

func mapletCrashOpts(fs fault.FS) Options {
	return Options{
		MemtableSize:    8,
		Policy:          PolicyMaplet,
		Durability:      DurabilityGroup,
		FS:              fs,
		WALSegmentBytes: 256,
	}
}

// mapletReadsPerKey probes every key the crash script could have
// written and records the device reads each lookup charged.
func mapletReadsPerKey(s *Store) []int {
	out := make([]int, 0, crashKeySpace)
	for k := uint64(1); k <= crashKeySpace; k++ {
		before := s.Device().Reads()
		s.Get(k)
		out = append(out, s.Device().Reads()-before)
	}
	return out
}

// TestMapletCrashSweepRouting kills a PolicyMaplet durable store at
// every mutating filesystem operation and asserts (a) the recovered
// state is an acceptable script prefix with zero delete misses, and
// (b) the recovered maplet routes every surviving key with
// counter-identical device reads across a checkpoint/reopen cycle —
// the offsets reconstructed from the image plus WAL replay cost
// exactly what the re-checkpointed image costs.
func TestMapletCrashSweepRouting(t *testing.T) {
	script := crashScript()
	models := crashModels(script)
	run := func(fs *fault.CrashFS) (acked int, openErr error) {
		s, err := OpenStore("db", mapletCrashOpts(fs))
		if err != nil {
			return 0, err
		}
		for i, e := range script {
			if err := s.Apply(e); err != nil {
				return i, nil
			}
		}
		s.Close()
		return len(script), nil
	}
	dry := fault.NewCrashFS(42)
	acked, openErr := run(dry)
	if openErr != nil || acked != len(script) {
		t.Fatalf("dry run: acked %d, open err %v", acked, openErr)
	}
	total := dry.Ops()
	if total < 100 {
		t.Fatalf("workload too small to exercise crash windows: %d FS ops", total)
	}
	t.Logf("sweeping %d crash points", total)
	for k := 1; k <= total; k++ {
		fs := fault.NewCrashFS(42)
		fs.CrashAfter(k)
		acked, openErr := run(fs)
		if openErr != nil && !errors.Is(openErr, fault.ErrCrashed) {
			t.Fatalf("crash point %d: unexpected open failure %v", k, openErr)
		}
		if !fs.Crashed() {
			t.Fatalf("crash point %d never fired (only %d ops this run)", k, fs.Ops())
		}
		rfs := fs.Recover()
		r1, err := OpenStore("db", mapletCrashOpts(rfs))
		if err != nil {
			t.Fatalf("crash point %d: recovery failed: %v", k, err)
		}
		state := dumpState(r1)
		lo := acked
		if openErr != nil {
			lo = 0
		}
		hi := acked + 1
		if hi > len(script) {
			hi = len(script)
		}
		if i := matchPrefix(state, models, lo, hi); i < 0 {
			t.Fatalf("crash point %d: recovered state %v matches no script prefix in [%d, %d] (acked %d)",
				k, state, lo, hi, acked)
		}
		if m := r1.MapletDeleteMisses(); m != 0 {
			t.Fatalf("crash point %d: %d maplet delete misses after recovery", k, m)
		}
		reads1 := mapletReadsPerKey(r1)
		if err := r1.Close(); err != nil {
			t.Fatalf("crash point %d: close after recovery: %v", k, err)
		}
		r2, err := OpenStore("db", mapletCrashOpts(rfs))
		if err != nil {
			t.Fatalf("crash point %d: second reopen failed: %v", k, err)
		}
		if !statesEqual(state, dumpState(r2)) {
			t.Fatalf("crash point %d: state changed across checkpoint/reopen", k)
		}
		reads2 := mapletReadsPerKey(r2)
		for i := range reads1 {
			if reads1[i] != reads2[i] {
				t.Fatalf("crash point %d: key %d costs %d reads recovered but %d reopened",
					k, i+1, reads1[i], reads2[i])
			}
		}
		r2.Close()
	}
}

// TestMapletImageV1Compat saves a store whose manifest carries a v1
// (run-id-only) maplet image and asserts the reopened store widens it
// to the packed layout: every key still routes (via the unknown-offset
// sentinel's whole-run search) at one read per probed run, and
// subsequent compactions remap the sentinel entries away without a
// single delete miss.
func TestMapletImageV1Compat(t *testing.T) {
	s := New(Options{Policy: PolicyMaplet, MemtableSize: 64})
	keys := workload.Keys(1500, 31)
	for i, k := range keys {
		s.Put(k, uint64(i))
	}
	s.Flush()

	// Rebuild what a v1 release would have persisted: the same routing,
	// but values holding bare run ids.
	legacy := quotient.NewMaplet(12, 12, 16)
	v := s.view.Load()
	for _, level := range v.levels {
		for _, r := range level {
			for _, e := range r.entries {
				for {
					if err := legacy.Put(e.Key, r.id); err == nil {
						break
					}
					if err := legacy.Expand(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	dir := t.TempDir()
	testLegacyMapletImage = legacy
	err := s.Save(dir)
	testLegacyMapletImage = nil
	if err != nil {
		t.Fatalf("Save: %v", err)
	}

	r, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatalf("OpenStore of v1 image: %v", err)
	}
	if r.mapOffBits == 0 || r.maplet.Len() != legacy.Len() {
		t.Fatalf("widened maplet: offBits=%d len=%d, want offBits>0 len=%d",
			r.mapOffBits, r.maplet.Len(), legacy.Len())
	}
	for i, k := range keys {
		before := r.Device().Reads()
		got, ok := r.Get(k)
		if !ok || got != uint64(i) {
			t.Fatalf("key %d = %d, %v; want %d", k, got, ok, i)
		}
		if reads := r.Device().Reads() - before; reads < 1 || reads > 3 {
			t.Fatalf("key %d cost %d reads through sentinel offsets", k, reads)
		}
	}
	for _, k := range workload.DisjointKeys(1000, 31) {
		if _, ok := r.Get(k); ok {
			t.Fatalf("phantom key %d after v1 widen", k)
		}
	}

	// Churn until compactions have rewritten the tree: the merge's
	// sentinel retry must find every v1-shaped entry it updates or
	// deletes.
	more := workload.Keys(3000, 37)
	for i, k := range more {
		r.Put(k, uint64(i)^0xF0F0)
	}
	r.Flush()
	if m := r.MapletDeleteMisses(); m != 0 {
		t.Fatalf("%d maplet delete misses while compacting v1 entries, want 0", m)
	}
	for i, k := range more {
		if got, ok := r.Get(k); !ok || got != uint64(i)^0xF0F0 {
			t.Fatalf("post-churn key %d = %d, %v", k, got, ok)
		}
	}
}
