// Package proteus implements a simplified Proteus (Knorr et al., §2.5 of
// the tutorial): a self-designing range filter combining a truncated trie
// over l1-bit key prefixes with a Bloom filter over l2-bit key prefixes
// (l2 > l1). The pair (l1, l2) is chosen by evaluating candidate designs
// against a sample of the query workload under a memory budget — the
// sample dependence is exactly the robustness caveat the tutorial notes
// (a workload shift requires re-tuning).
//
// Simplifications vs the paper (documented in DESIGN.md): l1 is byte
// granular (the trie is the package surf LOUDS-sparse trie over truncated
// keys), and the cost model is the measured false-positive rate on the
// sample rather than the closed-form CPFPR model.
package proteus

import (
	"sort"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/surf"
	"beyondbloom/internal/workload"
)

// maxProbes caps per-query Bloom probes; prefix ranges wider than this
// rely on the trie alone.
const maxProbes = 64

// Filter is an immutable Proteus filter.
type Filter struct {
	trie   *surf.Filter // over keys >> (64-l1), compared at l1 bits
	prefix *bloom.Filter
	l1     uint // trie prefix bits (multiple of 8; 0 disables the trie)
	l2     uint // Bloom prefix bits (l1 < l2 <= 64; 0 disables the Bloom)
	n      int
}

// Design is a candidate (l1, l2) pair with its sampled FPR.
type Design struct {
	L1, L2 uint
	FPR    float64
}

// New builds a Proteus filter over keys, choosing (l1, l2) by evaluating
// candidates on sampleQueries under the bitsPerKey memory budget.
func New(keys []uint64, sampleQueries []workload.RangeQuery, bitsPerKey float64) *Filter {
	best, _ := SelfDesign(keys, sampleQueries, bitsPerKey)
	return Build(keys, best.L1, best.L2, bitsPerKey)
}

// SelfDesign evaluates candidate designs and returns the best plus the
// full evaluation (exposed for the experiment harness).
func SelfDesign(keys []uint64, sampleQueries []workload.RangeQuery, bitsPerKey float64) (Design, []Design) {
	var evals []Design
	best := Design{FPR: 2}
	for _, l1 := range []uint{0, 16, 24, 32, 40} {
		for _, l2 := range []uint{0, 24, 32, 40, 48, 64} {
			if l2 != 0 && l2 <= l1 {
				continue
			}
			if l1 == 0 && l2 == 0 {
				continue
			}
			f := Build(keys, l1, l2, bitsPerKey)
			fpr := sampleFPR(f, keys, sampleQueries)
			evals = append(evals, Design{L1: l1, L2: l2, FPR: fpr})
			if fpr < best.FPR {
				best = Design{L1: l1, L2: l2, FPR: fpr}
			}
		}
	}
	return best, evals
}

// sampleFPR measures the filter's positive rate on the empty sample
// queries (queries overlapping keys are skipped — they must and do
// return true).
func sampleFPR(f *Filter, keys []uint64, qs []workload.RangeQuery) float64 {
	if len(qs) == 0 {
		return 0
	}
	// Build a small sorted index for exact emptiness checks.
	idx := newSortedIndex(keys)
	empties, fps := 0, 0
	for _, q := range qs {
		if idx.anyIn(q.Lo, q.Hi) {
			continue
		}
		empties++
		if f.MayContainRange(q.Lo, q.Hi) {
			fps++
		}
	}
	if empties == 0 {
		return 0
	}
	return float64(fps) / float64(empties)
}

// Build constructs a Proteus with explicit design parameters, splitting
// the memory budget between trie and Bloom according to which are
// enabled.
func Build(keys []uint64, l1, l2 uint, bitsPerKey float64) *Filter {
	f := &Filter{l1: l1, l2: l2, n: len(keys)}
	if l1 > 0 {
		prefixes := make([]uint64, len(keys))
		for i, k := range keys {
			// Left-align the l1-bit prefix so surf's byte trie sees it.
			prefixes[i] = k >> (64 - l1) << (64 - l1)
		}
		f.trie = surf.New(prefixes, surf.SuffixNone, 0)
	}
	if l2 > 0 {
		bloomBits := bitsPerKey
		if l1 > 0 {
			bloomBits = bitsPerKey / 2
		}
		f.prefix = bloom.NewBitsSeeded(max(len(keys), 1), bloomBits, 0x9307E05)
		for _, k := range keys {
			f.prefix.Insert(k >> (64 - l2))
		}
	}
	return f
}

func newSortedIndex(keys []uint64) *sortedIndex {
	s := &sortedIndex{keys: make([]uint64, len(keys))}
	copy(s.keys, keys)
	sortU64(s.keys)
	return s
}

type sortedIndex struct{ keys []uint64 }

func (s *sortedIndex) anyIn(lo, hi uint64) bool {
	i, j := 0, len(s.keys)
	for i < j {
		m := (i + j) / 2
		if s.keys[m] < lo {
			i = m + 1
		} else {
			j = m
		}
	}
	return i < len(s.keys) && s.keys[i] <= hi
}

func sortU64(xs []uint64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// MayContainRange intersects the verdicts of both components.
func (f *Filter) MayContainRange(lo, hi uint64) bool {
	if lo > hi || f.n == 0 {
		return false
	}
	if f.trie != nil {
		// The trie stores left-aligned l1-bit prefixes; querying the raw
		// range works because prefix truncation only widens intervals.
		if !f.trie.MayContainRange(lo, hi) {
			return false
		}
	}
	if f.prefix != nil {
		shift := 64 - f.l2
		loP, hiP := lo>>shift, hi>>shift
		if hiP-loP+1 > maxProbes || hiP < loP {
			return true // too many probes; rely on the trie's answer
		}
		for p := loP; ; p++ {
			if f.prefix.Contains(p) {
				return true
			}
			if p == hiP {
				break
			}
		}
		return false
	}
	return true
}

// Contains is a point query.
func (f *Filter) Contains(key uint64) bool { return f.MayContainRange(key, key) }

// Design returns the chosen (l1, l2).
func (f *Filter) Design() (uint, uint) { return f.l1, f.l2 }

// SizeBits returns the combined footprint.
func (f *Filter) SizeBits() int {
	bits := 0
	if f.trie != nil {
		bits += f.trie.SizeBits()
	}
	if f.prefix != nil {
		bits += f.prefix.SizeBits()
	}
	return bits
}

var _ core.RangeFilter = (*Filter)(nil)
