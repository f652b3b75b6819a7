// Package bloom implements the Bloom filter family surveyed by the
// tutorial: the classic Bloom filter (§2, semi-dynamic), the counting
// Bloom filter with fixed-width counters, saturation detection and
// rebuild (§2.6), a spectral-style variant with the minimum-increase
// heuristic and an overflow table for skewed multisets (§2.6), and the
// scalable Bloom filter — a chain of geometrically growing filters with
// tightening false-positive rates (§2.2).
package bloom

import (
	"fmt"
	"math"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Filter is a classic Bloom filter over uint64 keys. It is semi-dynamic:
// insertions are supported, deletions are not, and the target capacity
// must be known at construction for the FPR guarantee to hold.
type Filter struct {
	spec core.Spec // construction parameters (capacity, bits/key, seed)
	bits *bitvec.Vector
	m    uint64 // number of bits
	k    uint   // hash functions
	n    int    // inserted keys (informational)
}

// New returns a Bloom filter sized for n keys at the target false
// positive rate epsilon, using the optimal k = ln2 * m/n hash functions.
func New(n int, epsilon float64) *Filter {
	bitsPerKey := core.BloomBitsPerKey(epsilon)
	return NewBits(n, bitsPerKey)
}

// NewBits returns a Bloom filter with the given bits-per-key budget.
func NewBits(n int, bitsPerKey float64) *Filter {
	return NewBitsSeeded(n, bitsPerKey, 0x5EEDB10000000001)
}

// NewBitsSeeded is NewBits with an explicit hash seed. Structures that
// layer several Bloom filters over related key sets (stacked filters,
// Rosetta, sequence Bloom trees) must give each layer its own seed, or
// inter-layer hash correlations inflate the compound false-positive
// rate.
func NewBitsSeeded(n int, bitsPerKey float64, seed uint64) *Filter {
	f, err := FromSpec(core.Spec{Type: core.TypeBloom, N: n, BitsPerKey: bitsPerKey, Seed: seed})
	if err != nil {
		panic(err) // unreachable for the budgets the constructors pass
	}
	return f
}

// FromSpec builds an empty Bloom filter from its construction
// parameters — the one code path every constructor, the registry, and
// the decoder share. N is clamped to at least 1 (matching the historic
// constructors); a non-positive bits-per-key budget is an error.
func FromSpec(s core.Spec) (*Filter, error) {
	f, err := shape(s)
	if err != nil {
		return nil, err
	}
	f.bits = bitvec.New(int(f.m))
	return f, nil
}

// shape is FromSpec without the bit array: it validates s and derives
// the geometry, and the decoder reads the array from the payload.
func shape(s core.Spec) (*Filter, error) {
	if s.Type != core.TypeBloom {
		return nil, fmt.Errorf("bloom: spec type %d is not TypeBloom", s.Type)
	}
	if s.N < 1 {
		s.N = 1
	}
	if !(s.BitsPerKey > 0) || s.BitsPerKey > 1024 {
		return nil, fmt.Errorf("bloom: bits per key %v out of range", s.BitsPerKey)
	}
	m := uint64(math.Ceil(float64(s.N) * s.BitsPerKey))
	if m < 64 {
		m = 64
	}
	return &Filter{spec: s, m: m, k: uint(core.BloomOptimalK(s.BitsPerKey))}, nil
}

// Spec returns the filter's construction parameters.
func (f *Filter) Spec() core.Spec { return f.spec }

// K returns the number of hash functions in use.
func (f *Filter) K() uint { return f.k }

// Insert adds key to the filter. It never fails, but inserting beyond the
// sized capacity degrades the false-positive rate.
func (f *Filter) Insert(key uint64) error {
	h1, h2 := hashutil.SplitHash(hashutil.MixSeed(key, f.spec.Seed))
	for i := uint(0); i < f.k; i++ {
		f.bits.Set(int(hashutil.Reduce(hashutil.KHash(h1, h2, i), f.m)))
	}
	f.n++
	return nil
}

// Contains reports whether key may have been inserted.
func (f *Filter) Contains(key uint64) bool {
	h1, h2 := hashutil.SplitHash(hashutil.MixSeed(key, f.spec.Seed))
	for i := uint(0); i < f.k; i++ {
		if !f.bits.Bit(int(hashutil.Reduce(hashutil.KHash(h1, h2, i), f.m))) {
			return false
		}
	}
	return true
}

// ContainsBatch probes every key, writing Contains(keys[i]) into
// out[i]. The batch is processed in chunks: all hash state for a chunk
// is computed up front (hash-once), then each hash-function round runs
// three tight loops over the surviving keys (probe-many) — compute
// positions, issue all filter-word loads into a stack buffer, then test
// bits and compact survivors arithmetically. Keeping the load loop pure
// lets the round's cache misses all be in flight at once, and keeping
// the data-dependent compaction chain on the L1-resident buffers keeps
// it off the miss path — the scalar loop instead serializes each miss
// behind the previous key's early-exit branch.
func (f *Filter) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	words := f.bits.Words()
	var h1s, h2s, w [core.BatchChunk]uint64
	var pos [core.BatchChunk]uint64
	var live [core.BatchChunk]uint16
	for base := 0; base < len(keys); base += core.BatchChunk {
		chunk := keys[base:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[base : base+len(chunk)]
		for i, k := range chunk {
			h1s[i], h2s[i] = hashutil.SplitHash(hashutil.MixSeed(k, f.spec.Seed))
			co[i] = false
			live[i] = uint16(i)
		}
		n := len(chunk)
		for round := uint(0); round < f.k && n > 0; round++ {
			for s := 0; s < n; s++ {
				i := live[s]
				pos[s] = hashutil.Reduce(hashutil.KHash(h1s[i], h2s[i], round), f.m)
			}
			for s := 0; s < n; s++ {
				w[s] = words[pos[s]>>6]
			}
			nl := 0
			for s := 0; s < n; s++ {
				bit := w[s] >> (pos[s] & 63) & 1
				live[nl] = live[s]
				nl += int(bit)
			}
			n = nl
		}
		// Keys that survived every round are (possible) members.
		for s := 0; s < n; s++ {
			co[live[s]] = true
		}
	}
}

// Len returns the number of inserted keys.
func (f *Filter) Len() int { return f.n }

// SizeBits returns the filter's footprint in bits.
func (f *Filter) SizeBits() int { return f.bits.SizeBits() }

// FillRatio returns the fraction of set bits (diagnostic; ≈ 0.5 at design
// capacity with optimal k).
func (f *Filter) FillRatio() float64 {
	return float64(f.bits.OnesCount()) / float64(f.m)
}

var (
	_ core.MutableFilter = (*Filter)(nil)
	_ core.BatchFilter   = (*Filter)(nil)
)
