package cuckoo

import (
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Maplet is a cuckoo-filter-based key-value filter (§2.4): each slot
// word is fingerprint<<vBits | value. Get returns the values of every
// entry whose fingerprint matches (PRS = 1+ε, NRS = ε).
type Maplet struct {
	table
	fpBits uint
	vBits  uint
	seed   uint64
}

// maxStash is the maplet's stash capacity: entries whose eviction walk
// failed (rare below 95% load).
const maxStash = 16

// NewMaplet returns a cuckoo maplet with capacity about n entries,
// fpBits-bit fingerprints and vBits-bit values.
func NewMaplet(n int, fpBits, vBits uint) *Maplet {
	if fpBits < 2 || vBits < 1 || fpBits+vBits > 58 {
		panic("cuckoo: invalid maplet geometry")
	}
	m := &Maplet{
		table:  newTable(n, 0xFEEDFACE87654321, maxStash, wordTag(vBits)),
		fpBits: fpBits,
		vBits:  vBits,
		seed:   0xCAFE0001,
	}
	m.alloc(fpBits+vBits, false)
	return m
}

// hash returns key's two candidate buckets and its fingerprint.
func (m *Maplet) hash(key uint64) (i1, i2, fp uint64) {
	h := hashutil.MixSeed(key, m.seed)
	i1, fp = (h>>32)&(m.numBuckets-1), hashutil.Fingerprint(h, m.fpBits)
	return i1, m.other(i1, fp), fp
}

// Put associates value with key.
func (m *Maplet) Put(key, value uint64) error {
	i1, i2, fp := m.hash(key)
	return m.insert(i1, i2, entry{word: fp<<m.vBits | value&hashutil.Mask(m.vBits)})
}

// Get returns the candidate values for key.
func (m *Maplet) Get(key uint64) []uint64 {
	i1, i2, fp := m.hash(key)
	var out []uint64
	m.each(i1, i2, func(_ int, e entry) bool {
		if e.word>>m.vBits == fp {
			out = append(out, e.word&hashutil.Mask(m.vBits))
		}
		return true
	})
	return out
}

// Delete removes one (key, value) entry. Returns ErrNotFound if absent.
func (m *Maplet) Delete(key, value uint64) error {
	i1, i2, fp := m.hash(key)
	word := fp<<m.vBits | value&hashutil.Mask(m.vBits)
	return m.remove(i1, i2, func(e entry) bool { return e.word == word })
}

var _ core.DeletableMaplet = (*Maplet)(nil)
