// Package xorfilter implements the XOR filter (Graf & Lemire, §2.7 of
// the tutorial): a static, algebraic filter built by hypergraph peeling.
// Each key maps to three slots in three equal segments; construction
// assigns slot values so the XOR of a key's three slots equals its
// fingerprint. The structure uses about 1.23·n·f bits for f-bit
// fingerprints and answers queries with exactly three memory probes.
package xorfilter

import (
	"errors"
	"fmt"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// ErrConstruction is returned when peeling fails after all seed retries
// (vanishingly unlikely at the 1.23 sizing factor).
var ErrConstruction = errors.New("xorfilter: construction failed")

// Filter is an immutable XOR filter.
type Filter struct {
	spec   core.Spec // construction parameters (key count, fp bits, winning seed)
	slots  *bitvec.Packed
	segLen uint64 // slots per segment (3 segments)
	fpBits uint
}

// sizingFactor is the standard 1.23 slot-per-key overhead.
const sizingFactor = 1.23

// segmentLen returns the per-segment slot count for n keys — one
// deterministic formula shared by construction and the decoder's
// geometry validation.
func segmentLen(n int) uint64 {
	return uint64(float64(n)*sizingFactor/3) + 11
}

// New builds an XOR filter over keys with fpBits-bit fingerprints
// (false-positive rate 2^-fpBits). Duplicate keys are tolerated.
func New(keys []uint64, fpBits uint) (*Filter, error) {
	if fpBits < 1 || fpBits > 32 {
		panic("xorfilter: fingerprint bits must be in [1,32]")
	}
	keys = dedup(keys)
	for seed := uint64(1); seed <= 64; seed++ {
		f, err := shape(core.Spec{
			Type:   core.TypeXor,
			N:      len(keys),
			FPBits: uint8(fpBits),
			Seed:   seed * 0x9E3779B97F4A7C15,
		})
		if err != nil {
			return nil, err
		}
		f.slots = bitvec.NewPacked(int(3*f.segLen), fpBits)
		if f.build(keys) {
			return f, nil
		}
	}
	return nil, ErrConstruction
}

// shape validates a Spec and derives the filter's geometry, leaving the
// slot table unallocated: New fills it by peeling, the decoder reads
// it from the payload.
func shape(s core.Spec) (*Filter, error) {
	if s.Type != core.TypeXor || s.FPBits < 1 || s.FPBits > 32 || s.Seed == 0 {
		return nil, fmt.Errorf("xorfilter: bad spec (type=%d fpBits=%d seed=%d)", s.Type, s.FPBits, s.Seed)
	}
	if s.N < 0 || int64(s.N) > 1<<40 {
		return nil, fmt.Errorf("xorfilter: key count %d out of range", s.N)
	}
	return &Filter{spec: s, segLen: segmentLen(s.N), fpBits: uint(s.FPBits)}, nil
}

// Spec returns the filter's construction parameters, including the
// peeling seed that succeeded.
func (f *Filter) Spec() core.Spec { return f.spec }

func dedup(keys []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// hashes returns the three slot indices and the fingerprint for key.
func (f *Filter) hashes(key uint64) (h [3]uint64, fp uint64) {
	x := hashutil.MixSeed(key, f.spec.Seed)
	fp = hashutil.Fingerprint(x, f.fpBits)
	h[0] = hashutil.Reduce(x, f.segLen)
	h[1] = f.segLen + hashutil.Reduce(hashutil.Mix64(x+1), f.segLen)
	h[2] = 2*f.segLen + hashutil.Reduce(hashutil.Mix64(x+2), f.segLen)
	return
}

// build runs the peeling construction: peel the keys' 3-hypergraph,
// then assign fingerprints in reverse peel order.
func (f *Filter) build(keys []uint64) bool {
	order, slots, ok := Peel(len(keys), int(3*f.segLen), func(i int) [3]uint64 {
		h, _ := f.hashes(keys[i])
		return h
	})
	if !ok {
		return false // 2-core non-empty; retry with a new seed
	}
	for i := len(order) - 1; i >= 0; i-- {
		slot := slots[i]
		h, fp := f.hashes(keys[order[i]])
		v := fp
		for _, hs := range h {
			if hs != slot {
				v ^= f.slots.Get(int(hs))
			}
		}
		f.slots.Set(int(slot), v)
	}
	return true
}

// Peel is the 3-hypergraph peeling that xor-style constructions build
// on: key i of n occupies the three slots edge(i) of m. It repeatedly
// removes a key that is the sole occupant of one of its slots and
// returns the keys in removal order with that slot each, or ok false
// when a 2-core remains. Assigning in reverse order writes each key's
// slot after every other slot of the key is final. A key's three slots
// must be distinct.
func Peel(n, m int, edge func(i int) [3]uint64) (order []int, slots []uint64, ok bool) {
	// Per-slot XOR of incident key indices, and degree counts.
	xorIdx := make([]int, m)
	degree := make([]int32, m)
	for i := 0; i < n; i++ {
		for _, s := range edge(i) {
			xorIdx[s] ^= i
			degree[s]++
		}
	}
	order = make([]int, 0, n)
	slots = make([]uint64, 0, n)
	queue := make([]int, 0, m)
	for s := 0; s < m; s++ {
		if degree[s] == 1 {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if degree[s] != 1 {
			continue
		}
		i := xorIdx[s]
		order = append(order, i)
		slots = append(slots, uint64(s))
		for _, hs := range edge(i) {
			xorIdx[hs] ^= i
			degree[hs]--
			if degree[hs] == 1 {
				queue = append(queue, int(hs))
			}
		}
	}
	return order, slots, len(order) == n
}

// Contains reports whether key may be in the set.
func (f *Filter) Contains(key uint64) bool {
	h, fp := f.hashes(key)
	return f.slots.Get(int(h[0]))^f.slots.Get(int(h[1]))^f.slots.Get(int(h[2])) == fp
}

// ContainsBatch probes every key (see core.BatchFilter). All three slot
// indices and the fingerprint are precomputed per chunk, so each key's
// three probes — one per segment, usually three distinct cache lines —
// issue together and overlap across keys instead of waiting on the hash
// of the next key.
func (f *Filter) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	var h0s, h1s, h2s, fps [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[start : start+len(chunk)]
		for i, k := range chunk {
			h, fp := f.hashes(k)
			h0s[i], h1s[i], h2s[i], fps[i] = h[0], h[1], h[2], fp
		}
		for i := range chunk {
			co[i] = f.slots.Get(int(h0s[i]))^f.slots.Get(int(h1s[i]))^f.slots.Get(int(h2s[i])) == fps[i]
		}
	}
}

// Len returns the number of keys the filter was built over.
func (f *Filter) Len() int { return f.spec.N }

// SizeBits returns the footprint in bits.
func (f *Filter) SizeBits() int { return f.slots.SizeBits() }

var (
	_ core.Filter      = (*Filter)(nil)
	_ core.BatchFilter = (*Filter)(nil)
)
