// Package stacked implements stacked filters (Deeds, Hentschel & Idreos,
// §2.8 of the tutorial): a hierarchy of alternating filters that exploits
// a sample of frequently-queried *negative* keys. Layer 1 holds the
// positives; layer 2 holds the known negatives that layer 1 falsely
// accepts; layer 3 holds the positives that layer 2 falsely rejects; and
// so on. A known hot negative must slip through every odd layer to be a
// false positive, so its error probability decreases exponentially with
// depth — the tutorial's "exponentially decrease the false positive rate
// when querying for them".
package stacked

import (
	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
)

// Filter is an immutable stacked filter.
type Filter struct {
	layers []*bloom.Filter // alternating: even index guards positives
	n      int
}

// New builds a stacked filter over the positive keys, using knownNegs —
// a sample of keys expected to be queried often despite being absent —
// and a per-layer bits-per-key budget. depth is the number of layers
// (>= 1; odd depths end on a positive layer, the usual choice is 3).
func New(positives, knownNegs []uint64, bitsPerKey float64, depth int) *Filter {
	if depth < 1 {
		depth = 1
	}
	f := &Filter{n: len(positives)}
	curPos, curNeg := positives, knownNegs
	for layer := 0; layer < depth; layer++ {
		seed := 0x57AC4ED + uint64(layer)*0x9E3779B97F4A7C15
		if layer%2 == 0 {
			bf := bloom.NewBitsSeeded(max(len(curPos), 1), bitsPerKey, seed)
			for _, k := range curPos {
				bf.Insert(k)
			}
			f.layers = append(f.layers, bf)
			// Negatives that pass this layer proceed to the next.
			curNeg = passing(bf, curNeg)
			if len(curNeg) == 0 {
				break
			}
		} else {
			bf := bloom.NewBitsSeeded(max(len(curNeg), 1), bitsPerKey, seed)
			for _, k := range curNeg {
				bf.Insert(k)
			}
			f.layers = append(f.layers, bf)
			// Positives falsely caught here must be re-asserted deeper.
			curPos = passing(bf, curPos)
			if len(curPos) == 0 {
				break
			}
		}
	}
	return f
}

func passing(bf *bloom.Filter, keys []uint64) []uint64 {
	var out []uint64
	for _, k := range keys {
		if bf.Contains(k) {
			out = append(out, k)
		}
	}
	return out
}

// Contains walks the stack: a "no" from a positive layer or a "yes"
// carried to the end of a negative layer run decides the answer.
func (f *Filter) Contains(key uint64) bool {
	for i, layer := range f.layers {
		if !layer.Contains(key) {
			// Positive layers assert membership: missing means absent.
			// Negative layers assert known-negativity: missing means the
			// chain of doubt ends and the previous positive evidence
			// stands.
			return i%2 == 1
		}
	}
	// Passed every layer: the deepest layer decides.
	return len(f.layers)%2 == 1
}

// Len returns the number of positive keys.
func (f *Filter) Len() int { return f.n }

// Layers returns the number of constructed layers.
func (f *Filter) Layers() int { return len(f.layers) }

// SizeBits returns the total footprint of all layers.
func (f *Filter) SizeBits() int {
	total := 0
	for _, l := range f.layers {
		total += l.SizeBits()
	}
	return total
}

var _ core.Filter = (*Filter)(nil)
