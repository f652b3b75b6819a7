package quotient

import (
	"fmt"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Maplet is a quotient-filter-based key-value filter (§2.4): each slot
// stores a value of vBits alongside the remainder. A Get for a present
// key returns its value plus, with probability ε, extra values from
// colliding fingerprints (expected positive result size 1+ε); a Get for
// an absent key returns colliding values only (expected negative result
// size ε). Multiple values per key are supported naturally — quotient
// filters store variable numbers of entries per run, which is why the
// tutorial calls them "adept" at multi-valued maplets.
type Maplet struct {
	t        *table
	r        uint
	vBits    uint
	seed     uint64
	identity bool // fingerprint = key & mask (caller pre-mixes)
	n        int
}

// NewMaplet returns a maplet with 2^q slots, r-bit remainders, and
// vBits-bit values. r+vBits must be at most 58.
func NewMaplet(q, r, vBits uint) *Maplet {
	if vBits < 1 || r+vBits > 58 {
		panic("quotient: invalid maplet geometry")
	}
	return &Maplet{t: newTable(q, r+vBits), r: r, vBits: vBits, seed: 0x3A9187}
}

// NewMapletForCapacity sizes a maplet for n keys at false-positive rate
// epsilon with vBits-bit values.
func NewMapletForCapacity(n int, epsilon float64, vBits uint) *Maplet {
	q := uint(1)
	for float64(uint64(1)<<q)*maxLoad < float64(n) {
		q++
	}
	r := uint(1)
	for ; r < 40; r++ {
		if 1.0/float64(uint64(1)<<r) <= epsilon {
			break
		}
	}
	return NewMaplet(q, r, vBits)
}

// NewMapletIdentity returns a maplet whose fingerprint is the key itself
// truncated to q+r bits: with keys that fit (and are pre-mixed for
// spread) the maplet is exact — a query returns only the values actually
// associated with the key. Mantis builds its exact k-mer-to-colour-class
// index this way.
func NewMapletIdentity(q, r, vBits uint) *Maplet {
	m := NewMaplet(q, r, vBits)
	m.identity = true
	return m
}

func (m *Maplet) fingerprint(key uint64) (fq, fr uint64) {
	fp := key
	if !m.identity {
		fp = hashutil.MixSeed(key, m.seed)
	}
	fp &= hashutil.Mask(m.t.q + m.r)
	return fp >> m.r, fp & hashutil.Mask(m.r)
}

// Put associates value with key. Duplicate (key, value) pairs insert
// duplicate entries; callers that want set semantics should Get first.
func (m *Maplet) Put(key, value uint64) error {
	fq, fr := m.fingerprint(key)
	if err := m.t.insert(fq, fr<<m.vBits|value&hashutil.Mask(m.vBits)); err != nil {
		return err
	}
	m.n++
	return nil
}

// Get returns every value whose entry matches key's fingerprint.
func (m *Maplet) Get(key uint64) []uint64 {
	fq, fr := m.fingerprint(key)
	start, length, ok := m.t.findRun(fq)
	if !ok {
		return nil
	}
	var out []uint64
	pos := start
	for i := uint64(0); i < length; i++ {
		e := m.t.payload.Get(int(pos))
		if e>>m.vBits == fr {
			out = append(out, e&hashutil.Mask(m.vBits))
		}
		pos = (pos + 1) & m.t.mask
	}
	return out
}

// GetAppend appends every value whose entry matches key's fingerprint
// to dst and returns the extended slice: Get without the allocation,
// for callers that pool the candidate buffer across lookups.
func (m *Maplet) GetAppend(dst []uint64, key uint64) []uint64 {
	fq, fr := m.fingerprint(key)
	return m.appendFP(dst, fq, fr)
}

// appendFP appends the values of every entry in fq's run whose
// remainder matches fr.
func (m *Maplet) appendFP(dst []uint64, fq, fr uint64) []uint64 {
	start, length, ok := m.t.findRunFast(fq)
	if !ok {
		return dst
	}
	pos := start
	for i := uint64(0); i < length; i++ {
		e := m.t.payload.Get(int(pos))
		if e>>m.vBits == fr {
			dst = append(dst, e&hashutil.Mask(m.vBits))
		}
		pos = (pos + 1) & m.t.mask
	}
	return dst
}

// GetBatch resolves every key's candidate values in one pass,
// hash-once / probe-many like Filter.ContainsBatch: a chunk's
// fingerprints are all computed up front, a pure load loop fetches
// each quotient's occupied-bit word so the cache misses overlap, and
// only keys whose quotient is occupied pay for the cluster walk. Key
// i's candidates land in dst[ends[i-1]:ends[i]] (ends[-1] reads as 0).
// Both slices are appended to and returned so callers can pool the
// backing arrays.
func (m *Maplet) GetBatch(keys []uint64, ends []int32, dst []uint64) ([]int32, []uint64) {
	occWords := m.t.occupied.Words()
	var fqs, frs, ows [core.BatchChunk]uint64
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		for i, k := range chunk {
			fqs[i], frs[i] = m.fingerprint(k)
		}
		for i := range chunk {
			ows[i] = occWords[fqs[i]>>6]
		}
		for i := range chunk {
			if ows[i]>>(fqs[i]&63)&1 == 1 {
				dst = m.appendFP(dst, fqs[i], frs[i])
			}
			ends = append(ends, int32(len(dst)))
		}
	}
	return ends, dst
}

// Delete removes one (key, value) association. Returns ErrNotFound if no
// matching entry exists.
func (m *Maplet) Delete(key, value uint64) error {
	fq, fr := m.fingerprint(key)
	if err := m.t.remove(fq, fr<<m.vBits|value&hashutil.Mask(m.vBits)); err != nil {
		return err
	}
	m.n--
	return nil
}

// Update replaces the value of an existing (key, oldValue) entry.
func (m *Maplet) Update(key, oldValue, newValue uint64) error {
	if err := m.Delete(key, oldValue); err != nil {
		return err
	}
	return m.Put(key, newValue)
}

// Len returns the number of stored entries.
func (m *Maplet) Len() int { return m.n }

// LoadFactor returns used slots / total slots.
func (m *Maplet) LoadFactor() float64 { return float64(m.t.used) / float64(m.t.slots) }

// SizeBits returns the physical footprint in bits.
func (m *Maplet) SizeBits() int { return m.t.sizeBits() }

// Entries returns all (fingerprint, value) pairs, ascending by
// fingerprint.
func (m *Maplet) Entries() []struct{ Fingerprint, Value uint64 } {
	out := make([]struct{ Fingerprint, Value uint64 }, 0, m.n)
	_ = m.t.each(func(fq, e uint64) error { // fn never fails; the table is consistent
		out = append(out, struct{ Fingerprint, Value uint64 }{
			Fingerprint: fq<<m.r | e>>m.vBits,
			Value:       e & hashutil.Mask(m.vBits),
		})
		return nil
	})
	return out
}

// Expand doubles the maplet, sacrificing one remainder bit (values keep
// their width). Returns ErrFull when remainder bits are exhausted.
func (m *Maplet) Expand() error {
	if m.r <= 1 {
		return core.ErrFull
	}
	t, err := m.t.doubled()
	if err != nil {
		return err
	}
	m.t = t
	m.r--
	return nil
}

// RemapValues rebuilds the maplet with value width vBits, passing
// every stored value through f. Fingerprints are preserved exactly, so
// lookups match the same keys as before and return the remapped
// values. The LSM store uses it to widen v1 (run-id-only) maplet
// images into the packed (run, offset) layout.
func (m *Maplet) RemapValues(vBits uint, f func(uint64) uint64) (*Maplet, error) {
	if vBits < 1 || m.r+vBits > 58 {
		return nil, fmt.Errorf("quotient: remapped maplet geometry r=%d vBits=%d out of range", m.r, vBits)
	}
	nm := *m
	nm.t, nm.vBits = newTable(m.t.q, m.r+vBits), vBits
	if err := m.t.each(func(fq, e uint64) error {
		return nm.t.insert(fq, e>>m.vBits<<vBits|f(e&hashutil.Mask(m.vBits))&hashutil.Mask(vBits))
	}); err != nil {
		return nil, err
	}
	return &nm, nil
}

// ValueBits returns the value width in bits.
func (m *Maplet) ValueBits() uint { return m.vBits }

// CheckInvariants validates internal consistency (test hook).
func (m *Maplet) CheckInvariants() error { return m.t.checkInvariants() }

var _ core.DeletableMaplet = (*Maplet)(nil)

// ResolvingMaplet wraps a Maplet with a SlimDB-style auxiliary dictionary
// (§2.4, §3.1): fingerprint collisions are detected on the insertion path
// and the colliding keys' exact entries move to the auxiliary dictionary,
// so positive queries return exactly one value (PRS = 1) and tail latency
// from multi-candidate results disappears. The cost is exact storage for
// the (rare) colliding keys.
type ResolvingMaplet struct {
	m   *Maplet
	aux map[uint64]uint64 // exact full-key overrides
}

// NewResolvingMaplet builds a PRS=1 maplet for n keys at fingerprint
// collision rate epsilon.
func NewResolvingMaplet(n int, epsilon float64, vBits uint) *ResolvingMaplet {
	return &ResolvingMaplet{
		m:   NewMapletForCapacity(n, epsilon, vBits),
		aux: make(map[uint64]uint64),
	}
}

// Put associates value with key, diverting to the auxiliary dictionary on
// fingerprint collision.
func (rm *ResolvingMaplet) Put(key, value uint64) error {
	if _, exists := rm.aux[key]; exists {
		rm.aux[key] = value
		return nil
	}
	if cands := rm.m.Get(key); len(cands) > 0 {
		// Fingerprint already present (this key re-put, or a collision
		// with another key): resolve exactly.
		rm.aux[key] = value
		return nil
	}
	return rm.m.Put(key, value)
}

// Get returns exactly the value for key if present in the auxiliary
// dictionary, otherwise the (single) filter candidate. The returned slice
// has length <= 1 for keys inserted through Put.
func (rm *ResolvingMaplet) Get(key uint64) []uint64 {
	if v, ok := rm.aux[key]; ok {
		return []uint64{v}
	}
	cands := rm.m.Get(key)
	if len(cands) > 1 {
		cands = cands[:1]
	}
	return cands
}

// SizeBits charges the maplet plus 128 bits per auxiliary entry (full
// key + value), mirroring SlimDB's accounting.
func (rm *ResolvingMaplet) SizeBits() int {
	return rm.m.SizeBits() + len(rm.aux)*128
}

// AuxLen returns the number of collisions diverted to the dictionary.
func (rm *ResolvingMaplet) AuxLen() int { return len(rm.aux) }

var _ core.Maplet = (*ResolvingMaplet)(nil)
