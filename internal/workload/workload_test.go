package workload

import (
	"regexp"
	"testing"
)

func TestKeysDistinctAndDeterministic(t *testing.T) {
	a := Keys(10000, 1)
	b := Keys(10000, 1)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Keys not deterministic")
		}
		if k := Key(uint64(i), 1); k != a[i] {
			t.Fatalf("Key(%d, 1) = %#x, Keys has %#x", i, k, a[i])
		}
		if seen[a[i]] {
			t.Fatal("Keys not distinct")
		}
		seen[a[i]] = true
	}
}

func TestDisjointKeysDisjoint(t *testing.T) {
	a := Keys(10000, 1)
	b := DisjointKeys(10000, 1)
	set := map[uint64]bool{}
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		if set[k] {
			t.Fatal("DisjointKeys overlaps Keys")
		}
	}
}

func TestSmallUniverseKeys(t *testing.T) {
	ks := SmallUniverseKeys(100, 1000, 3)
	seen := map[uint64]bool{}
	for _, k := range ks {
		if k >= 1000 {
			t.Fatalf("key %d out of universe", k)
		}
		if seen[k] {
			t.Fatal("duplicate key")
		}
		seen[k] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("n > universe must panic")
		}
	}()
	SmallUniverseKeys(11, 10, 1)
}

func TestZipfSkew(t *testing.T) {
	samples := Zipf(100000, 1000, 1.5, 7)
	counts := make([]int, 1000)
	for _, s := range samples {
		if s < 0 || s >= 1000 {
			t.Fatalf("sample %d out of range", s)
		}
		counts[s]++
	}
	// Item 0 should dominate under heavy skew.
	if counts[0] < counts[500]*10 {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestZipfMultisetTotal(t *testing.T) {
	keys := Keys(100, 2)
	ms := ZipfMultiset(keys, 5000, 1.3, 9)
	total := uint64(0)
	for _, c := range ms {
		total += c
	}
	if total != 5000 {
		t.Fatalf("multiset total %d, want 5000", total)
	}
}

func TestUniformRanges(t *testing.T) {
	qs := UniformRanges(1000, 16, 1<<30, 5)
	for _, q := range qs {
		if q.Hi-q.Lo != 15 {
			t.Fatalf("range length wrong: [%d,%d]", q.Lo, q.Hi)
		}
		if q.Hi >= 1<<30 {
			t.Fatal("range exceeds universe")
		}
	}
}

func TestCorrelatedRangesNearKeys(t *testing.T) {
	keys := SmallUniverseKeys(100, 1<<40, 11)
	keySet := map[uint64]bool{}
	for _, k := range keys {
		keySet[k] = true
	}
	qs := CorrelatedRanges(keys, 500, 8, 2, 13)
	for _, q := range qs {
		if !keySet[q.Lo-2] {
			t.Fatal("correlated query not anchored at a key")
		}
	}
}

func TestAdversarialPrefixKeysSharePrefixes(t *testing.T) {
	keys := AdversarialPrefixKeys(1000, 17)
	if len(keys) != 1000 {
		t.Fatalf("got %d keys", len(keys))
	}
	pairsSharing := 0
	for i := 0; i+1 < len(keys); i += 2 {
		if keys[i]>>2 == keys[i+1]>>2 {
			pairsSharing++
		}
	}
	if pairsSharing < 450 {
		t.Errorf("adversarial pairs sharing 62-bit prefix: %d of 500", pairsSharing)
	}
}

func TestURLsShape(t *testing.T) {
	urls := URLs(200, 23)
	re := regexp.MustCompile(`^http://[a-z0-9]+\.[a-z]+/[a-z0-9]+$`)
	for _, u := range urls {
		if !re.MatchString(u) {
			t.Fatalf("malformed URL %q", u)
		}
	}
}

func TestDNAAndReads(t *testing.T) {
	g := DNA(10000, 31)
	for _, b := range g {
		if b != 'A' && b != 'C' && b != 'G' && b != 'T' {
			t.Fatalf("bad base %c", b)
		}
	}
	reads := Reads(g, 50, 100, 0, 37)
	for _, r := range reads {
		if len(r) != 100 {
			t.Fatal("read length wrong")
		}
		// Error-free reads must appear in the genome.
		if !contains(g, r) {
			t.Fatal("error-free read not a substring of genome")
		}
	}
	// With error rate 1, reads will (almost surely) differ.
	noisy := Reads(g, 10, 100, 1.0, 41)
	diff := 0
	for _, r := range noisy {
		if !contains(g, r) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("fully-noisy reads all matched genome (unexpected)")
	}
}

func contains(g, sub []byte) bool {
	for i := 0; i+len(sub) <= len(g); i++ {
		if string(g[i:i+len(sub)]) == string(sub) {
			return true
		}
	}
	return false
}

func TestShuffleDeterministic(t *testing.T) {
	a := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b := []int{1, 2, 3, 4, 5, 6, 7, 8}
	Shuffle(a, 99)
	Shuffle(b, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic")
		}
	}
}
