// Package bloomier implements the Bloomier filter (Chazelle et al.,
// §2.4 of the tutorial): a static maplet built over a fixed key set. A
// query for a present key returns exactly its value (PRS = 1); a query
// for an absent key is detected with probability 1-ε and otherwise
// returns one arbitrary value (NRS ≤ 1). Values of existing keys can be
// updated in O(1), but new keys cannot be inserted.
//
// Construction follows Chazelle's two-table design: a selector table G,
// built by 3-hypergraph peeling, encodes for each key which of its three
// slots is "critical" along with a checksum; a value table V stores the
// value at the critical slot. Updates write V directly without touching
// G, which is what distinguishes a Bloomier filter from an XOR filter
// with values.
package bloomier

import (
	"errors"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/xorfilter"
)

// ErrConstruction is returned when peeling fails after all seed retries.
var ErrConstruction = errors.New("bloomier: construction failed")

// ErrUnknownKey is returned by Update for keys outside the build set.
var ErrUnknownKey = errors.New("bloomier: key not in build set")

// Filter is an immutable-keyset Bloomier filter mapping uint64 keys to
// vBits-bit values.
type Filter struct {
	g      *bitvec.Packed // selector (2 bits) + checksum (fpBits)
	v      *bitvec.Packed // values
	m      uint64
	fpBits uint
	vBits  uint
	seed   uint64
	n      int
}

// New builds a Bloomier filter mapping keys[i] -> values[i], with
// fpBits-bit checksums (false-positive rate 2^-fpBits for absent keys).
func New(keys, values []uint64, fpBits, vBits uint) (*Filter, error) {
	if len(keys) != len(values) {
		panic("bloomier: keys/values length mismatch")
	}
	if fpBits < 1 || fpBits > 30 || vBits < 1 || vBits > 62 {
		panic("bloomier: invalid geometry")
	}
	n := len(keys)
	m := uint64(float64(n)*1.23) + 32
	for attempt := uint64(1); attempt <= 64; attempt++ {
		f := &Filter{
			g:      bitvec.NewPacked(int(m), 2+fpBits),
			v:      bitvec.NewPacked(int(m), vBits),
			m:      m,
			fpBits: fpBits,
			vBits:  vBits,
			seed:   attempt * 0xB10031E500000001,
			n:      n,
		}
		if f.build(keys, values) {
			return f, nil
		}
	}
	return nil, ErrConstruction
}

// hashes returns the three candidate slots and the checksum for key.
func (f *Filter) hashes(key uint64) (h [3]uint64, check uint64) {
	x := hashutil.MixSeed(key, f.seed)
	third := f.m / 3
	h[0] = hashutil.Reduce(x, third)
	h[1] = third + hashutil.Reduce(hashutil.Mix64(x+1), third)
	h[2] = 2*third + hashutil.Reduce(hashutil.Mix64(x+2), f.m-2*third)
	check = hashutil.Fingerprint(hashutil.Mix64(x+3), f.fpBits)
	return
}

func (f *Filter) build(keys, values []uint64) bool {
	order, slots, ok := xorfilter.Peel(len(keys), int(f.m), func(i int) [3]uint64 {
		h, _ := f.hashes(keys[i])
		return h
	})
	if !ok {
		return false
	}
	// Assign G in reverse peel order so each key's critical slot is
	// written last: G[h0]^G[h1]^G[h2] must equal selector|check, where
	// selector says which of the three slots is the critical one.
	for i := len(order) - 1; i >= 0; i-- {
		idx, slot := order[i], slots[i]
		h, check := f.hashes(keys[idx])
		var sel uint64
		for j, hs := range h {
			if hs == slot {
				sel = uint64(j)
				break
			}
		}
		want := check<<2 | sel
		g := want
		for _, hs := range h {
			if hs != slot {
				g ^= f.g.Get(int(hs))
			}
		}
		f.g.Set(int(slot), g)
		f.v.Set(int(slot), values[idx])
	}
	return true
}

// criticalSlot decodes key's critical slot if the checksum matches.
func (f *Filter) criticalSlot(key uint64) (uint64, bool) {
	h, check := f.hashes(key)
	d := f.g.Get(int(h[0])) ^ f.g.Get(int(h[1])) ^ f.g.Get(int(h[2]))
	if d>>2 != check {
		return 0, false
	}
	sel := d & 3
	if sel > 2 {
		return 0, false
	}
	return h[sel], true
}

// Get returns the candidate values for key: exactly one for keys in the
// build set, at most one (with probability ε) for absent keys.
func (f *Filter) Get(key uint64) []uint64 {
	if s, ok := f.criticalSlot(key); ok {
		return []uint64{f.v.Get(int(s))}
	}
	return nil
}

// Contains reports whether key appears to be in the build set.
func (f *Filter) Contains(key uint64) bool {
	_, ok := f.criticalSlot(key)
	return ok
}

// Update changes the value of a key from the build set in O(1). Updating
// a key outside the build set usually returns ErrUnknownKey; with
// probability ε it instead silently corrupts one colliding key's value,
// exactly as in the original structure.
func (f *Filter) Update(key, value uint64) error {
	s, ok := f.criticalSlot(key)
	if !ok {
		return ErrUnknownKey
	}
	f.v.Set(int(s), value)
	return nil
}

// Put is Update under the core.Maplet interface: the key set is static.
func (f *Filter) Put(key, value uint64) error { return f.Update(key, value) }

// Len returns the build-set size.
func (f *Filter) Len() int { return f.n }

// SizeBits returns the footprint of both tables in bits.
func (f *Filter) SizeBits() int { return f.g.SizeBits() + f.v.SizeBits() }

var _ core.Maplet = (*Filter)(nil)
