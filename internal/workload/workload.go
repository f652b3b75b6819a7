// Package workload generates the deterministic synthetic workloads used
// by every experiment: uniform and Zipfian key sets, adversarial query
// streams, correlated range queries, URL-like strings, and DNA sequences.
// All generators are seeded, so experiment output is reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"beyondbloom/internal/hashutil"
)

// Key returns the i-th key of seed's stream: Keys(n, seed)[i] for any
// n > i, without materialising the slice. Distinctness comes from
// Mix64 being a bijection over a counter.
func Key(i, seed uint64) uint64 { return hashutil.Mix64(i + seed<<32) }

// Keys returns n distinct pseudo-random uint64 keys derived from seed.
func Keys(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = Key(uint64(i), seed)
	}
	return keys
}

// DisjointKeys returns n keys guaranteed not to collide with Keys(m, seed)
// for any m (it uses a disjoint counter range under the same bijection).
func DisjointKeys(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = Key(uint64(i)+1<<48, seed)
	}
	return keys
}

// SmallUniverseKeys returns n distinct keys drawn uniformly from
// [0, universe). It panics if n > universe.
func SmallUniverseKeys(n int, universe uint64, seed int64) []uint64 {
	if uint64(n) > universe {
		panic("workload: n exceeds universe")
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64() % universe
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// Zipf returns a stream of m samples over items [0, n) following a
// Zipfian distribution with parameter s > 1.
func Zipf(m, n int, s float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int, m)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// ZipfMultiset returns a multiset over the given keys: counts follow a
// Zipfian distribution with parameter s, total samples m.
func ZipfMultiset(keys []uint64, m int, s float64, seed int64) map[uint64]uint64 {
	idx := Zipf(m, len(keys), s, seed)
	counts := make(map[uint64]uint64)
	for _, i := range idx {
		counts[keys[i]]++
	}
	return counts
}

// RangeQuery is a closed-interval query [Lo, Hi].
type RangeQuery struct {
	Lo, Hi uint64
}

// UniformRanges returns m queries of the given length with uniformly
// random starting points in [0, universe-length).
func UniformRanges(m int, length, universe uint64, seed int64) []RangeQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]RangeQuery, m)
	for i := range qs {
		lo := rng.Uint64() % (universe - length)
		qs[i] = RangeQuery{Lo: lo, Hi: lo + length - 1}
	}
	return qs
}

// CorrelatedRanges returns m queries whose left endpoint sits a fixed
// small gap after an existing key — the adversarially correlated workload
// the tutorial credits Grafite with surviving. Such queries are usually
// empty but land very close to keys, defeating prefix-based filters.
func CorrelatedRanges(keys []uint64, m int, length, gap uint64, seed int64) []RangeQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]RangeQuery, m)
	for i := range qs {
		k := keys[rng.Intn(len(keys))]
		lo := k + gap
		qs[i] = RangeQuery{Lo: lo, Hi: lo + length - 1}
	}
	return qs
}

// AdversarialPrefixKeys returns n key pairs engineered so that every pair
// shares a unique long prefix (they differ only in the low bits). This is
// the workload the tutorial notes destroys SuRF's space efficiency, since
// the trie must store nearly all 64 bits of every key to disambiguate.
func AdversarialPrefixKeys(n int, seed uint64) []uint64 {
	keys := make([]uint64, 0, n)
	for i := 0; len(keys) < n; i++ {
		base := hashutil.Mix64(uint64(i)+seed) &^ uint64(3)
		keys = append(keys, base)
		if len(keys) < n {
			keys = append(keys, base|1)
		}
	}
	return keys
}

// URLs returns n synthetic URL-like strings with realistic structure
// (scheme, domain drawn from a skewed distribution, random path).
func URLs(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	tlds := []string{"com", "net", "org", "io", "ru", "cn", "info"}
	out := make([]string, n)
	for i := range out {
		domLen := 5 + rng.Intn(12)
		dom := randString(rng, domLen)
		pathLen := 4 + rng.Intn(24)
		path := randString(rng, pathLen)
		out[i] = fmt.Sprintf("http://%s.%s/%s", dom, tlds[rng.Intn(len(tlds))], path)
	}
	return out
}

const lowerAlnum = "abcdefghijklmnopqrstuvwxyz0123456789"

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = lowerAlnum[rng.Intn(len(lowerAlnum))]
	}
	return string(b)
}

// DNA returns a random genome of length n over ACGT.
func DNA(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	bases := []byte("ACGT")
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[rng.Intn(4)]
	}
	return g
}

// Reads fragments genome into m reads of the given length at random
// offsets, optionally flipping each base with errRate (sequencing error).
func Reads(genome []byte, m, length int, errRate float64, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bases := []byte("ACGT")
	reads := make([][]byte, m)
	for i := range reads {
		off := rng.Intn(len(genome) - length + 1)
		r := make([]byte, length)
		copy(r, genome[off:off+length])
		if errRate > 0 {
			for j := range r {
				if rng.Float64() < errRate {
					r[j] = bases[rng.Intn(4)]
				}
			}
		}
		reads[i] = r
	}
	return reads
}

// Shuffle permutes xs deterministically in place.
func Shuffle[T any](xs []T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
