package ef

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randSorted(rng *rand.Rand, n int, universe uint64) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() % universe
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func TestGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 100, 5000} {
		for _, u := range []uint64{1, 10, 1 << 20, 1 << 62} {
			vals := randSorted(rng, n, u)
			s := New(vals, u)
			if s.Len() != n {
				t.Fatalf("Len=%d want %d", s.Len(), n)
			}
			for i, want := range vals {
				if got := s.Get(i); got != want {
					t.Fatalf("n=%d u=%d: Get(%d)=%d want %d", n, u, i, got, want)
				}
			}
		}
	}
}

func TestSuccessorIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const u = 1 << 30
	vals := randSorted(rng, 2000, u)
	s := New(vals, u)
	naive := func(x uint64) int {
		return sort.Search(len(vals), func(i int) bool { return vals[i] >= x })
	}
	// Probe encoded values themselves, their neighbours, and randoms.
	probes := []uint64{0, u - 1}
	for _, v := range vals[:200] {
		probes = append(probes, v)
		if v > 0 {
			probes = append(probes, v-1)
		}
		probes = append(probes, v+1)
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, rng.Uint64()%u)
	}
	for _, x := range probes {
		if got, want := s.SuccessorIndex(x), naive(x); got != want {
			t.Fatalf("SuccessorIndex(%d)=%d want %d", x, got, want)
		}
	}
}

func TestRangeEmptyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const u = 1 << 24
	vals := randSorted(rng, 500, u)
	s := New(vals, u)
	inSet := map[uint64]bool{}
	for _, v := range vals {
		inSet[v] = true
	}
	naiveEmpty := func(a, b uint64) bool {
		i := sort.Search(len(vals), func(i int) bool { return vals[i] >= a })
		return i >= len(vals) || vals[i] > b
	}
	for i := 0; i < 5000; i++ {
		a := rng.Uint64() % u
		b := a + rng.Uint64()%1024
		if b >= u {
			b = u - 1
		}
		if got, want := s.RangeEmpty(a, b), naiveEmpty(a, b); got != want {
			t.Fatalf("RangeEmpty(%d,%d)=%v want %v", a, b, got, want)
		}
	}
	// Inverted interval is empty by definition.
	if !s.RangeEmpty(10, 5) {
		t.Fatal("inverted interval should be empty")
	}
}

func TestContains(t *testing.T) {
	vals := []uint64{3, 3, 7, 100, 100000}
	s := New(vals, 1<<20)
	for _, v := range vals {
		if !s.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 4, 99, 101, 99999, 100001} {
		if s.Contains(v) {
			t.Fatalf("Contains(%d) = true", v)
		}
	}
}

func TestDuplicatesAndDenseSequences(t *testing.T) {
	// Dense: universe == n, lowBits == 0 path.
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i)
	}
	s := New(vals, 100)
	for i := range vals {
		if s.Get(i) != uint64(i) {
			t.Fatalf("dense Get(%d) wrong", i)
		}
	}
	// All-equal values.
	same := []uint64{42, 42, 42, 42}
	s2 := New(same, 1000)
	for i := range same {
		if s2.Get(i) != 42 {
			t.Fatal("duplicate encode broken")
		}
	}
	if s2.SuccessorIndex(42) != 0 || s2.SuccessorIndex(43) != 4 {
		t.Fatal("successor over duplicates broken")
	}
}

func TestNonMonotonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotone input must panic")
		}
	}()
	New([]uint64{5, 3}, 10)
}

func TestOutOfUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-universe input must panic")
		}
	}()
	New([]uint64{5}, 5)
}

func TestSpaceNearOptimal(t *testing.T) {
	// Elias-Fano should use about log2(u/n) + 2 bits/element plus the
	// rank directory. With our 32-bit-per-word directory, allow 4x slack;
	// mainly this guards against accidental blowups.
	rng := rand.New(rand.NewSource(3))
	n := 10000
	u := uint64(1 << 40)
	s := New(randSorted(rng, n, u), u)
	perElem := float64(s.SizeBits()) / float64(n)
	if perElem > 4*(40-13+2) {
		t.Fatalf("EF footprint %f bits/elem unexpectedly large", perElem)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := New(vals, 1<<32)
		for i, v := range vals {
			if s.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSuccessorIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const u = 1 << 40
	s := New(randSorted(rng, 1<<20, u), u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SuccessorIndex(uint64(i) * 0x9E3779B97F4A7C15 % u)
	}
}
