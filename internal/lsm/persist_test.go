package lsm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/surf"
	"beyondbloom/internal/workload"
)

// reopen saves s into a fresh directory and opens it again.
func reopen(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return got
}

// TestReopenIdenticalAnswersAndIO is the durability acceptance check:
// a reopened store must give the same Get/GetBatch answers as the
// original AND pay the same I/O doing it — counters are persisted and
// every reloaded filter answers bit-identically, so the two stores'
// Device counters stay equal through an identical workload.
func TestReopenIdenticalAnswersAndIO(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"bloom-leveling", Options{Policy: PolicyBloom, MemtableSize: 256}},
		{"monkey-tiering", Options{Policy: PolicyMonkey, MemtableSize: 256, Compaction: Tiering}},
		{"maplet", Options{Policy: PolicyMaplet, MemtableSize: 256}},
		{"none-lazy", Options{Policy: PolicyNone, MemtableSize: 256, Compaction: LazyLeveling}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts)
			keys := fillStore(t, s, 20000, 7)
			for _, k := range keys[:500] {
				s.Delete(k)
			}
			// Leave the memtable partially full so its persistence is
			// exercised too.
			s.Put(123456789, 42)

			got := reopen(t, s, Options{RangeFilter: tc.opts.RangeFilter})
			if got.Levels() != s.Levels() || got.Runs() != s.Runs() {
				t.Fatalf("shape: got %d levels/%d runs, want %d/%d", got.Levels(), got.Runs(), s.Levels(), s.Runs())
			}
			if got.Device().Reads() != s.Device().Reads() || got.Device().Writes() != s.Device().Writes() {
				t.Fatalf("restored counters: got R=%d W=%d, want R=%d W=%d",
					got.Device().Reads(), got.Device().Writes(), s.Device().Reads(), s.Device().Writes())
			}
			if got.FilterMemoryBits() != s.FilterMemoryBits() {
				t.Fatalf("FilterMemoryBits: got %d, want %d", got.FilterMemoryBits(), s.FilterMemoryBits())
			}

			// Identical workload on both stores: answers and the exact I/O
			// trajectory must match.
			probe := append(append([]uint64{}, keys...), workload.DisjointKeys(5000, 7)...)
			for _, k := range probe {
				v1, ok1 := s.Get(k)
				v2, ok2 := got.Get(k)
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("Get(%d): original (%d,%v), reopened (%d,%v)", k, v1, ok1, v2, ok2)
				}
			}
			if got.Device().Reads() != s.Device().Reads() {
				t.Fatalf("scalar lookups diverged: %d reads vs %d", got.Device().Reads(), s.Device().Reads())
			}
			if got.FilterProbes() != s.FilterProbes() {
				t.Fatalf("filter probes diverged: %d vs %d", got.FilterProbes(), s.FilterProbes())
			}

			v1 := make([]uint64, len(probe))
			f1 := make([]bool, len(probe))
			v2 := make([]uint64, len(probe))
			f2 := make([]bool, len(probe))
			s.GetBatch(probe, v1, f1)
			got.GetBatch(probe, v2, f2)
			for i := range probe {
				if v1[i] != v2[i] || f1[i] != f2[i] {
					t.Fatalf("GetBatch(%d): original (%d,%v), reopened (%d,%v)", probe[i], v1[i], f1[i], v2[i], f2[i])
				}
			}
			if got.Device().Reads() != s.Device().Reads() {
				t.Fatalf("batched lookups diverged: %d reads vs %d", got.Device().Reads(), s.Device().Reads())
			}

			// The reopened store keeps working as a store: new writes flush
			// and compact with the restored id pool and level arithmetic.
			for i, k := range workload.Keys(5000, 11) {
				got.Put(k, uint64(i))
			}
			for i, k := range workload.Keys(5000, 11) {
				if v, ok := got.Get(k); !ok || v != uint64(i) {
					t.Fatalf("post-reopen Put/Get(%d) = (%d,%v)", k, v, ok)
				}
			}
		})
	}
}

// TestReopenWithRangeFilter verifies range filters are rebuilt from
// the reloaded keys and Scan still skips runs.
func TestReopenWithRangeFilter(t *testing.T) {
	builder := func(keys []uint64) core.RangeFilter {
		return surf.New(keys, surf.SuffixReal, 8)
	}
	s := New(Options{Policy: PolicyBloom, MemtableSize: 256, RangeFilter: builder})
	keys := fillStore(t, s, 8000, 5)
	got := reopen(t, s, Options{RangeFilter: builder})
	lo, hi := keys[17], keys[17]+1000
	want := s.Scan(lo, hi)
	have := got.Scan(lo, hi)
	if len(want) != len(have) {
		t.Fatalf("Scan: %d entries vs %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("Scan[%d]: %+v vs %+v", i, have[i], want[i])
		}
	}
	if s.Device().Reads() != got.Device().Reads() {
		t.Fatalf("scan I/O diverged: %d vs %d", got.Device().Reads(), s.Device().Reads())
	}

	// Reopening without the builder must fail loudly, not silently lose
	// the range filters.
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); err == nil {
		t.Fatal("OpenStore without the saved store's RangeFilter builder should error")
	}
}

// TestOpenStoreRejectsMismatchedOptions checks structural overrides
// that disagree with the manifest are configuration errors.
func TestOpenStoreRejectsMismatchedOptions(t *testing.T) {
	s := New(Options{Policy: PolicyBloom, MemtableSize: 256, SizeRatio: 4})
	fillStore(t, s, 3000, 9)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{MemtableSize: 512},
		{SizeRatio: 8},
		{Policy: PolicyMaplet},
		{BitsPerKey: 4},
		{Compaction: Tiering},
	} {
		if _, err := OpenStore(dir, bad); err == nil {
			t.Fatalf("OpenStore with mismatched %+v should error", bad)
		}
	}
	if _, err := OpenStore(dir, Options{}); err != nil {
		t.Fatalf("OpenStore with zero options: %v", err)
	}
}

// TestOpenStoreDetectsCorruption flips bytes in each saved file and
// requires OpenStore to fail rather than serve wrong answers.
func TestOpenStoreDetectsCorruption(t *testing.T) {
	s := New(Options{Policy: PolicyBloom, MemtableSize: 256})
	fillStore(t, s, 4000, 13)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected manifest plus run files, found %d files", len(files))
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), raw...)
		mutated[len(mutated)/2] ^= 0x10
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, Options{}); err == nil {
			t.Fatalf("corrupting %s went undetected", filepath.Base(path))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Id state that decodes cleanly but would hand out an id a run
	// holds: a repeated free id, a free id naming a run, a run above
	// nextID.
	sn, err := s.pin()
	if err != nil {
		t.Fatal(err)
	}
	var top uint64
	for _, level := range sn.v.levels {
		for _, r := range level {
			top = max(top, r.id)
		}
	}
	spare := sn.nextID + 1
	for name, edit := range map[string]func(*snapshot){
		"repeated free id": func(b *snapshot) { b.nextID, b.freeIDs = spare, []uint64{spare, spare} },
		"free id of a run": func(b *snapshot) { b.freeIDs = append(slices.Clone(b.freeIDs), top) },
		"run above nextID": func(b *snapshot) { b.nextID, b.freeIDs = top-1, nil },
	} {
		bad := *sn
		edit(&bad)
		manifest, err := s.encodeManifest(&bad, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, Options{}); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: OpenStore = %v, want ErrCorrupt", name, err)
		}
	}
	manifest, err := s.encodeManifest(sn, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); err != nil {
		t.Fatalf("restored files should open cleanly: %v", err)
	}
}

// TestSnapshotIsOneInstant writes a maplet store's image from a pin
// taken before further flushes and compactions, which a concurrent
// Save's pin may precede: the engine recycles ids meanwhile, so an
// image that encoded the maplet after its pin would route keys of the
// pinned runs to runs that took their ids. The reopened image must hold
// every pinned key, before and after it writes runs of its own.
func TestSnapshotIsOneInstant(t *testing.T) {
	s := New(Options{MemtableSize: 16, Policy: PolicyMaplet})
	for k := uint64(1); k <= 200; k++ {
		s.Put(k, k*7)
	}
	sn, err := s.pin()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(201); k <= 400; k++ {
		s.Put(k, k*7)
	}
	dir := t.TempDir()
	if _, err := s.writeImage(fault.Disk, dir, sn, nil, false); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"reopened", "after more flushes"} {
		for k := uint64(1); k <= 200; k++ {
			if v, ok := r.Get(k); !ok || v != k*7 {
				t.Fatalf("%s: pinned key %d reads %d, %v", when, k, v, ok)
			}
		}
		for k := uint64(1000); k < 1400; k++ {
			r.Put(k, k)
		}
		r.Flush()
	}
}

// TestOpenStoreV1Manifest: a manifest written by the pre-durability
// release (kind TypeLSMManifest, no durable/watermark fields) still
// opens — the persistence layer is versioned by frame kind, so the
// old layout decodes as a snapshot-only image instead of misparsing.
func TestOpenStoreV1Manifest(t *testing.T) {
	var e codec.Enc
	e.U64(8) // MemtableSize
	e.U64(4) // SizeRatio
	e.U8(uint8(PolicyBloom))
	e.F64(10)   // BitsPerKey
	e.F64(0.01) // MonkeyBaseFPR
	e.U8(uint8(Leveling))
	e.Bool(false)            // no range filter
	for i := 0; i < 9; i++ { // device + filter counters
		e.U64(0)
	}
	e.U64(0)    // nextID
	e.U64s(nil) // freeIDs
	// v1 stops here: no durable flag, no watermark.
	e.U64(2) // memtable
	e.U64(1)
	e.U64(10)
	e.Bool(false)
	e.U64(2)
	e.U64(20)
	e.Bool(false)
	e.U64(0)      // no levels
	e.Bool(false) // no maplet
	var buf bytes.Buffer
	if _, err := codec.WriteFrame(&buf, core.TypeLSMManifest, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatalf("v1 manifest refused: %v", err)
	}
	for k := uint64(1); k <= 2; k++ {
		if v, ok := s.Get(k); !ok || v != k*10 {
			t.Fatalf("key %d = %d, %v", k, v, ok)
		}
	}
	// Upgrade path: a v1 snapshot opens durable too — it holds no WAL
	// segments, so the store starts a fresh log on top of it.
	u, err := OpenStore(dir, Options{Durability: DurabilityGroup})
	if err != nil {
		t.Fatalf("v1 manifest with durability: %v", err)
	}
	u.Close()
}

// TestOpenStoreRejectsForeignManifestKind: a MANIFEST holding some
// other frame kind fails with a kind error, not a misparse.
func TestOpenStoreRejectsForeignManifestKind(t *testing.T) {
	var buf bytes.Buffer
	if _, err := codec.WriteFrame(&buf, core.TypeLSMRun, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); !errors.Is(err, codec.ErrKind) {
		t.Fatalf("foreign manifest kind: err = %v, want ErrKind", err)
	}
}
