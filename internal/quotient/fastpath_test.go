package quotient

import (
	"math/rand"
	"testing"
)

// TestFindRunFastMatchesSlow drives random tables across geometries —
// including q < 6 (forced fallback) and high loads that wrap clusters
// past slot 0 — and asserts findRunFast agrees with the bit-walk
// reference for every possible quotient, occupied or not.
func TestFindRunFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, q := range []uint{4, 6, 7, 9, 11} {
		for _, load := range []float64{0.2, 0.6, 0.9} {
			f := New(q, 8)
			n := int(load * float64(uint64(1)<<q))
			for i := 0; i < n; i++ {
				if err := f.Insert(rng.Uint64()); err != nil {
					break
				}
			}
			for fq := uint64(0); fq < f.t.slots; fq++ {
				s1, l1, ok1 := f.t.findRun(fq)
				s2, l2, ok2 := f.t.findRunFast(fq)
				if s1 != s2 || l1 != l2 || ok1 != ok2 {
					t.Fatalf("q=%d load=%v fq=%d: slow=(%d,%d,%v) fast=(%d,%d,%v)",
						q, load, fq, s1, l1, ok1, s2, l2, ok2)
				}
			}
		}
	}
}

// TestFindRunFastWraparound pins the fallback path: quotients near the
// top of the table shift runs across slot 0, which the word scans must
// hand back to the circular bit-walk rather than mis-resolve.
func TestFindRunFastWraparound(t *testing.T) {
	f := New(6, 8) // 64 slots: one metadata word, maximal edge exposure
	// Synthesize fingerprints whose quotients pile up at the table end;
	// each remainder is the largest in its run, so it goes last.
	for i := uint64(0); i < 20; i++ {
		fq := (62 + i%3) & f.t.mask
		s, n := f.t.locate(fq)
		if err := f.t.splice(fq, s, n, int(n), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.t.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for fq := uint64(0); fq < f.t.slots; fq++ {
		s1, l1, ok1 := f.t.findRun(fq)
		s2, l2, ok2 := f.t.findRunFast(fq)
		if s1 != s2 || l1 != l2 || ok1 != ok2 {
			t.Fatalf("fq=%d: slow=(%d,%d,%v) fast=(%d,%d,%v)", fq, s1, l1, ok1, s2, l2, ok2)
		}
	}
}

// TestRunContainsMatchesGet checks the SWAR windowed run scan against
// per-slot Get across payload widths, run positions (incl. wrapping
// runs), and run lengths.
func TestRunContainsMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint{4, 8, 11, 13, 16, 21, 24, 33} {
		tb := newTable(7, width) // 128 slots
		mask := uint64(1)<<width - 1
		vals := make([]uint64, tb.slots)
		for i := range vals {
			vals[i] = rng.Uint64() & mask
			tb.payload.Set(i, vals[i])
		}
		for trial := 0; trial < 2000; trial++ {
			start := rng.Uint64() & tb.mask
			length := uint64(rng.Intn(12) + 1)
			v := rng.Uint64() & mask
			if trial%3 == 0 { // plant a hit
				at := (start + uint64(rng.Intn(int(length)))) & tb.mask
				v = vals[at]
			}
			want := false
			for i := uint64(0); i < length; i++ {
				if vals[(start+i)&tb.mask] == v {
					want = true
					break
				}
			}
			if got := tb.runContains(start, length, v); got != want {
				t.Fatalf("width=%d start=%d len=%d v=%#x: got %v want %v",
					width, start, length, v, got, want)
			}
		}
	}
}

// TestContainsBatchZeroAllocs pins the zero-allocation contract of the
// quotient batch probe: the staged kernel must run entirely out of its
// stack chunk buffers (an allocation per batch would dwarf the
// memory-level-parallelism win it exists for).
func TestContainsBatchZeroAllocs(t *testing.T) {
	f := New(14, 12)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if err := f.Insert(rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, 512)
	out := make([]bool, 512)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.ContainsBatch(keys, out)
	})
	if allocs != 0 {
		t.Fatalf("ContainsBatch allocates %v times per run, want 0", allocs)
	}
}

// TestWritesZeroAllocs pins the in-place write path: a steady-state
// insert or delete (no expansion) is one splice on the table's own
// storage, for the filter and the maplet alike, and a maplet Update
// moves payloads within one run.
func TestWritesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := New(14, 12)
	m := NewMaplet(14, 12, 32)
	for i := 0; i < 12000; i++ {
		k := rng.Uint64()
		if f.Insert(k) != nil || m.Put(k, k) != nil {
			t.Fatal("full")
		}
	}
	k, u := rng.Uint64(), rng.Uint64()
	if m.Put(u, 7) != nil {
		t.Fatal("full")
	}
	for name, op := range map[string]func(){
		"Maplet.Update": func() {
			if m.Update(u, 7, 9) != nil || m.Update(u, 9, 7) != nil {
				t.Fatal("update failed")
			}
		},
		"Filter.Insert+Delete": func() {
			if f.Insert(k) != nil || f.Delete(k) != nil {
				t.Fatal("write failed")
			}
		},
		"Maplet.Put+Delete": func() {
			if m.Put(k, 7) != nil || m.Delete(k, 7) != nil {
				t.Fatal("write failed")
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, allocs)
		}
	}
}
