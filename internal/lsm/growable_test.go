package lsm

import (
	"os"
	"path/filepath"
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/taffy"
	"beyondbloom/internal/workload"
)

// growableFixtureModel replays the script testdata/growable-v3 was
// written with: a PolicyBloom store (MemtableSize 64) whose run filters
// were growable taffy filters, recorded as such in a v3 manifest.
func growableFixtureModel() (model map[uint64]uint64, absent []uint64) {
	keys := workload.Keys(400, 61)
	model = make(map[uint64]uint64, len(keys))
	for i, k := range keys {
		model[k] = uint64(i)
	}
	for _, k := range keys[:100] {
		delete(model, k)
	}
	for i, k := range keys[100:200] {
		model[k] = uint64(i)*7 + 1
	}
	return model, append(append([]uint64(nil), keys[:100]...), workload.DisjointKeys(400, 61)...)
}

// checkModel asserts s holds exactly model's keys and none of absent.
func checkModel(t *testing.T, s *Store, model map[uint64]uint64, absent []uint64) {
	t.Helper()
	for k, want := range model {
		if got, ok := s.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
	for _, k := range absent {
		if _, ok := s.Get(k); ok {
			t.Fatalf("Get(%d) found an absent key", k)
		}
	}
}

// TestGrowableStoreFixture opens a store saved while run filters could
// be growable: its manifest sets the v3 growable flag, which is read
// and ignored, and its run filter files hold taffy filters, which still
// decode. It answers exactly; runs built after the reopen carry Bloom
// filters, and the mixed store survives a save and reopen.
func TestGrowableStoreFixture(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "growable-v3")
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	old := map[*run]bool{}
	for _, level := range s.view.Load().levels {
		for _, r := range level {
			if _, ok := r.filter.(*taffy.Filter); !ok {
				t.Fatalf("fixture run %d filter is %T, want *taffy.Filter", r.id, r.filter)
			}
			old[r] = true
		}
	}
	if len(old) == 0 {
		t.Fatal("fixture holds no runs")
	}
	model, absent := growableFixtureModel()
	checkModel(t, s, model, absent)

	for i, k := range workload.Keys(1000, 67) {
		s.Put(k, uint64(i)+1)
		model[k] = uint64(i) + 1
	}
	s.Flush()
	fresh := 0
	for _, level := range s.view.Load().levels {
		for _, r := range level {
			if old[r] {
				continue
			}
			fresh++
			if _, ok := r.filter.(*bloom.Filter); !ok {
				t.Fatalf("new run %d filter is %T, want *bloom.Filter", r.id, r.filter)
			}
		}
	}
	if fresh == 0 {
		t.Fatal("writes built no new run")
	}
	checkModel(t, s, model, absent)
	checkModel(t, reopen(t, s, Options{}), model, absent)
}
