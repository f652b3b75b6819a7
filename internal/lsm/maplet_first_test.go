package lsm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// These tests pin the maplet-first read path: the global maplet maps
// key → run and is the store's primary index, so its
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
	// kv_read's shape: 2^15 keys in three levels, frames of hits and
	// misses in turn.
	s, frames := kvReadFrames(1<<15, PolicyMaplet)
	s.GetBatch(frames[0], vals, found)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		s.GetBatch(frames[i%len(frames)], vals, found)
		i++
	}); avg != 0 {
		t.Fatalf("maplet GetBatch at 2^15 keys allocates %.1f objects per 256-key batch, want 0", avg)
	}
}

// TestMapletFullRefusesWrites fills a durable maplet store whose index
// is a tiny maplet, NewMaplet(4, 3, w): two doublings take it to 64
// slots, which hold mapletCapacity(64) entries. Apply then refuses with
// core.ErrFull before logging anything, and none of the flushes on the
// way panics. Every acknowledged key reads back, before and after a
// reopen.
func TestMapletFullRefusesWrites(t *testing.T) {
	fs := fault.NewCrashFS(12)
	s, err := OpenStore("db", mapletCrashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	s.maplet = newMapletIndex(quotient.NewMaplet(4, 3, s.maplet.m.ValueBits()))
	limit := int(mapletCapacity(s.maplet.m.FinalSlots()))
	model := map[uint64]uint64{}
	var refused error
	for k := uint64(1); refused == nil && k < 1000; k++ {
		if k%5 == 0 {
			// An overwrite: a fresh key for the memtable all the same.
			if err := s.Apply(Entry{Key: k / 5, Value: k}); err == nil {
				model[k/5] = k
			}
		}
		lsn := s.WAL().LastLSN()
		refused = s.Apply(Entry{Key: k, Value: k * 3}, Entry{Key: k + 5000, Tombstone: true})
		if refused != nil {
			if got := s.WAL().LastLSN(); got != lsn {
				t.Fatalf("a refused batch was logged: last LSN %d, then %d", lsn, got)
			}
			break
		}
		model[k] = k * 3
	}
	if !errors.Is(refused, core.ErrFull) {
		t.Fatalf("Apply past the maplet's capacity: %v, want core.ErrFull", refused)
	}
	s.Flush()
	if n := s.maplet.Len(); n > limit || n < limit-4 {
		t.Fatalf("maplet holds %d entries at the refusal, capacity %d", n, limit)
	}
	check := func(s *Store, when string) {
		t.Helper()
		for k, want := range model {
			if got, ok := s.Get(k); !ok || got != want {
				t.Fatalf("%s: key %d = (%d, %v), want (%d, true)", when, k, got, ok, want)
			}
		}
	}
	check(s, "after the refusal")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore("db", mapletCrashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	check(r, "after a reopen")
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
// the routing reconstructed from the image plus WAL replay costs
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

// TestMapletImageOldKindsRefused swaps the maplet image inside a saved
// store's manifest for the two layouts that carried addresses — a v1
// bare KindMaplet frame of 16-bit run ids, and a v2 KindMapletV2 frame
// of (run id, block offset) values — and asserts OpenStore refuses
// each with ErrVersion: no panic, no store, and nothing written to the
// directory, whether or not it is opened durable.
func TestMapletImageOldKindsRefused(t *testing.T) {
	s := New(Options{Policy: PolicyMaplet, MemtableSize: 64})
	keys := workload.Keys(1500, 31)
	for i, k := range keys {
		s.Put(k, uint64(i))
	}
	s.Flush()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); err != nil {
		t.Fatalf("current image refused: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.ReadFrame(codec.NewDec(raw), core.TypeLSMManifestV3)
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := writeMapletImage(&image, s.maplet.m); err != nil {
		t.Fatal(err)
	}
	prefix, ok := bytes.CutSuffix(payload, image.Bytes())
	if !ok {
		t.Fatal("manifest does not end with the maplet image")
	}

	// What the earlier releases wrote for the same keys.
	v1, v2 := quotient.NewMaplet(12, 12, 16), quotient.NewMaplet(12, 12, 16+8)
	for i, k := range keys {
		if err := v1.Put(k, uint64(i%7+1)); err != nil {
			t.Fatal(err)
		}
		if err := v2.Put(k, uint64(i%7+1)<<8|uint64(i/entriesPerBlock)); err != nil {
			t.Fatal(err)
		}
	}
	var v1Frame, v2Frame bytes.Buffer
	if _, err := v1.WriteTo(&v1Frame); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Encode(&v2Frame, codec.KindMapletV2, func(e *codec.Enc) error {
		e.U8(16)
		e.U8(8)
		_, err := v2.WriteTo(e)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{{"v1", v1Frame.Bytes()}, {"v2", v2Frame.Bytes()}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var manifest bytes.Buffer
			if _, err := codec.WriteFrame(&manifest, core.TypeLSMManifestV3, append(append([]byte(nil), prefix...), tc.frame...)); err != nil {
				t.Fatal(err)
			}
			if err := s.Save(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {Durability: DurabilityGroup}, {Background: true}} {
				r, err := OpenStore(dir, opts)
				if !errors.Is(err, codec.ErrVersion) || r != nil {
					t.Fatalf("OpenStore(%+v) = (%v, %v), want (nil, ErrVersion)", opts, r, err)
				}
			}
			after, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(before) {
				t.Fatalf("refused opens changed the directory: %d entries, then %d", len(before), len(after))
			}
		})
	}
}
