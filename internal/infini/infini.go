// Package infini implements an InfiniFilter-style expandable filter
// (Dayan et al., §2.2 of the tutorial). The core idea: fingerprints have
// variable length. When the filter doubles, every fingerprint donates its
// lowest bit to address the larger table (so existing entries need no
// access to their original keys), while entries inserted after the
// expansion get full fresh fingerprints. The result is expansion to an
// effectively unbounded set size with a stable false-positive rate — the
// property experiment E3 contrasts against plain quotient-filter doubling
// (whose FPR doubles per expansion) and chained filters (whose query cost
// grows per link).
//
// Representation note (see DESIGN.md §3.4): the original packs
// variable-length fingerprints into quotient-filter slots with unary
// padding; here each bucket holds its entries as (fingerprint, length)
// pairs, and SizeBits accounts for the bits the paper's layout would use.
// Behaviour — FPR trajectory, expansion mechanics, deletes, void
// handling — is preserved.
package infini

import (
	"fmt"
	"math"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// FreshBits is the fingerprint length assigned to newly inserted entries.
// An entry loses one bit per doubling and becomes "void" (matches every
// query in its bucket) after FreshBits expansions.
const FreshBits = 16

type entry struct {
	fp  uint32
	len uint8
}

// Filter is an expandable filter over uint64 keys.
type Filter struct {
	buckets [][]entry
	q       uint // log2 bucket count
	seed    uint64
	n       int
	exps    int
	maxLoad float64
	voids   int
}

const defaultSeed = 0x1F1F1F1F

// New returns a filter with 2^q initial buckets.
func New(q uint) (*Filter, error) {
	if q > 40 { // before Spec.Q narrows q to a byte
		return nil, fmt.Errorf("infini: q=%d outside [1, 40]", q)
	}
	return FromSpec(core.Spec{Type: core.TypeInfini, Q: uint8(q)})
}

// FromSpec builds an empty filter from its construction parameters:
// Spec.Q is the initial log2 bucket count, Spec.Seed the hash seed
// (0 selects the default).
func FromSpec(s core.Spec) (*Filter, error) {
	f, err := shape(s)
	if err != nil {
		return nil, err
	}
	f.buckets = make([][]entry, uint64(1)<<f.q)
	return f, nil
}

// shape is FromSpec without the bucket array: it validates s, and the
// decoder sizes the array once the payload has shown it holds one byte
// per bucket.
func shape(s core.Spec) (*Filter, error) {
	if s.Type != core.TypeInfini {
		return nil, fmt.Errorf("infini: spec type %d is not TypeInfini", s.Type)
	}
	if s.Q < 1 || s.Q > 40 {
		return nil, fmt.Errorf("infini: q=%d outside [1, 40]", s.Q)
	}
	f := &Filter{q: uint(s.Q), seed: s.Seed, maxLoad: 0.9}
	if f.seed == 0 {
		f.seed = defaultSeed
	}
	return f, nil
}

// Spec returns the filter's construction parameters: the initial table
// width (the current one less the doublings) and the seed.
func (f *Filter) Spec() core.Spec {
	return core.Spec{Type: core.TypeInfini, Q: uint8(f.q - uint(f.exps)), Seed: f.seed}
}

func (f *Filter) hash(key uint64) uint64 { return hashutil.MixSeed(key, f.seed) }

func (f *Filter) bucketOf(h uint64) uint64 { return h & hashutil.Mask(f.q) }

// freshFP extracts a FreshBits fingerprint adjacent to the current
// quotient bits, exactly as a newly inserted entry would store it.
func (f *Filter) freshFP(h uint64) uint32 {
	return uint32((h >> f.q) & hashutil.Mask(FreshBits))
}

// Insert adds key, doubling first if at the load threshold.
func (f *Filter) Insert(key uint64) error {
	if float64(f.n+1) > f.maxLoad*float64(len(f.buckets)) {
		f.expand()
	}
	h := f.hash(key)
	b := f.bucketOf(h)
	f.buckets[b] = append(f.buckets[b], entry{fp: f.freshFP(h), len: FreshBits})
	f.n++
	return nil
}

// Contains reports whether key may be present: an entry matches if its
// stored fingerprint equals the corresponding bits of the key's hash,
// compared at the entry's own length (void entries match everything).
func (f *Filter) Contains(key uint64) bool {
	h := f.hash(key)
	b := f.bucketOf(h)
	probe := (h >> f.q) & hashutil.Mask(FreshBits)
	for _, e := range f.buckets[b] {
		if uint64(e.fp) == probe&hashutil.Mask(uint(e.len)) {
			return true
		}
	}
	return false
}

// Delete removes one matching entry. Returns ErrNotFound if no entry
// matches.
func (f *Filter) Delete(key uint64) error {
	h := f.hash(key)
	b := f.bucketOf(h)
	probe := (h >> f.q) & hashutil.Mask(FreshBits)
	bucket := f.buckets[b]
	// Prefer deleting the longest (most specific) match so void or short
	// entries — which stand in for many keys — survive longest.
	best := -1
	for i, e := range bucket {
		if uint64(e.fp) == probe&hashutil.Mask(uint(e.len)) {
			if best < 0 || e.len > bucket[best].len {
				best = i
			}
		}
	}
	if best < 0 {
		return core.ErrNotFound
	}
	if bucket[best].len == 0 {
		f.voids--
	}
	f.buckets[b] = append(bucket[:best], bucket[best+1:]...)
	f.n--
	return nil
}

// expand doubles the bucket array. Each entry moves to the child bucket
// selected by its lowest fingerprint bit and gets one bit shorter. Void
// entries (length already 0) have no bit to donate: they are duplicated
// into both children, preserving no-false-negative semantics for the
// unbounded-universe case, as in InfiniFilter's void handling.
func (f *Filter) expand() {
	old := f.buckets
	f.q++
	f.buckets = make([][]entry, uint64(1)<<f.q)
	topBit := uint64(1) << (f.q - 1)
	f.n = 0
	f.voids = 0
	for b, bucket := range old {
		for _, e := range bucket {
			if e.len == 0 {
				f.buckets[uint64(b)] = append(f.buckets[uint64(b)], e)
				f.buckets[uint64(b)|topBit] = append(f.buckets[uint64(b)|topBit], e)
				f.n += 2
				f.voids += 2
				continue
			}
			child := uint64(b)
			if e.fp&1 == 1 {
				child |= topBit
			}
			ne := entry{fp: e.fp >> 1, len: e.len - 1}
			if ne.len == 0 {
				f.voids++
			}
			f.buckets[child] = append(f.buckets[child], ne)
			f.n++
		}
	}
	f.exps++
}

// ContainsBatch probes every key, writing Contains(keys[i]) into
// out[i] (see core.BatchFilter): one pure pass hashes the chunk and
// resolves buckets, a second stages the bucket slices so their header
// loads overlap, then the entry scans run. It allocates nothing.
func (f *Filter) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	var probes [core.BatchChunk]uint64
	var bks [core.BatchChunk][]entry
	fpMask := hashutil.Mask(FreshBits)
	for base := 0; base < len(keys); base += core.BatchChunk {
		chunk := keys[base:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[base : base+len(chunk)]
		for i, k := range chunk {
			h := f.hash(k)
			probes[i] = (h >> f.q) & fpMask
			bks[i] = f.buckets[f.bucketOf(h)]
		}
		for i := range chunk {
			hit := false
			for _, e := range bks[i] {
				if uint64(e.fp) == probes[i]&hashutil.Mask(uint(e.len)) {
					hit = true
					break
				}
			}
			co[i] = hit
		}
	}
}

// Expansions returns the number of doublings so far.
func (f *Filter) Expansions() int { return f.exps }

// FPRBudget returns the filter's nominal false-positive rate at the
// configured load: maxLoad·2^(-FreshBits) — the rate fresh entries
// provide. Unlike taffy, InfiniFilter's realized FPR drifts upward
// linearly with each doubling as fingerprints shorten (the trajectory
// experiments E3 and E23 measure); the budget is the floor, not a bound
// held across unbounded growth.
func (f *Filter) FPRBudget() float64 {
	return f.maxLoad * math.Pow(2, -FreshBits)
}

// Voids returns the number of void (zero-length) entries.
func (f *Filter) Voids() int { return f.voids }

// Len returns the number of stored entries.
func (f *Filter) Len() int { return f.n }

// LoadFactor returns entries / buckets.
func (f *Filter) LoadFactor() float64 { return float64(f.n) / float64(len(f.buckets)) }

// SizeBits reports the space the paper's packed layout would use: each
// entry costs its fingerprint length plus ~3 metadata bits plus ~2 bits
// of unary length padding, over 2^q slots.
func (f *Filter) SizeBits() int {
	bits := 0
	for _, bucket := range f.buckets {
		for _, e := range bucket {
			bits += int(e.len) + 5
		}
	}
	// Unoccupied slots still cost their metadata in the packed layout.
	bits += (len(f.buckets) - f.n) * 5
	return bits
}

var (
	_ core.DeletableFilter = (*Filter)(nil)
	_ core.GrowableFilter  = (*Filter)(nil)
	_ core.BatchFilter     = (*Filter)(nil)
)
