package quotient

import (
	"fmt"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Filter is the classic quotient filter: a dynamic approximate set
// supporting insert, delete, and membership over uint64 keys. The
// fingerprint has q+r bits; the top q bits (the quotient) are stored
// implicitly by slot position, the low r bits (the remainder) explicitly,
// giving n·r payload bits plus 3 metadata bits per slot.
//
// The filter is a multiset of fingerprints: every Insert takes a slot and
// every Delete frees one, so colliding keys never delete each other.
// Counting stores the same multiset with logarithmic-size counters.
type Filter struct {
	spec core.Spec // construction parameters (q, r, seed)
	t    *table
	r    uint // current remainder bits (spec.R minus expansions)
	n    int  // fingerprints stored, counting repeats

	// autoExpand, when set, doubles capacity (sacrificing one remainder
	// bit per doubling, §2.2) when load exceeds maxLoad. When remainder
	// bits run out the filter saturates: every query returns true.
	autoExpand bool
	saturated  bool
	expansions int
}

// maxLoad is the occupancy beyond which Insert reports ErrFull (or
// triggers doubling with SetAutoExpand). Quotient filters degrade sharply
// past ~0.95 occupancy.
const maxLoad = 0.95

// New returns a quotient filter with 2^q slots and r-bit remainders.
// Capacity is maxLoad·2^q keys; the false-positive rate is about
// load·2^-r.
func New(q, r uint) *Filter {
	return NewWithSeed(q, r, 0x9F0F100D)
}

// NewWithSeed returns a quotient filter using the given hash seed. The
// fingerprint of key is MixSeed(key, seed) masked to q+r bits; callers
// that layer extra per-key state on top (e.g. adaptive extensions) use
// this to share the filter's fingerprint space.
func NewWithSeed(q, r uint, seed uint64) *Filter {
	f, err := FromSpec(core.Spec{Type: core.TypeQuotient, Q: uint8(q), R: uint8(r), Seed: seed})
	if err != nil {
		panic(err) // matches the historic constructors, which panicked in newTable
	}
	return f
}

// FromSpec builds an empty quotient filter from its construction
// parameters — the one code path the constructors, the registry, and
// the decoder share.
func FromSpec(s core.Spec) (*Filter, error) {
	if s.Type != core.TypeQuotient {
		return nil, fmt.Errorf("quotient: spec type %d is not TypeQuotient", s.Type)
	}
	if s.Q < 1 || s.Q > 40 {
		return nil, fmt.Errorf("quotient: q=%d out of range [1,40]", s.Q)
	}
	if s.R < 1 || s.R > 58 {
		return nil, fmt.Errorf("quotient: r=%d out of range [1,58]", s.R)
	}
	return &Filter{spec: s, t: newTable(uint(s.Q), uint(s.R)), r: uint(s.R)}, nil
}

// Spec returns the filter's construction parameters. Expansion changes
// the live geometry but not the spec: current q/r are spec.Q+Expansions
// and spec.R-Expansions.
func (f *Filter) Spec() core.Spec { return f.spec }

// NewForCapacity returns a filter sized for n keys at false-positive rate
// near epsilon (r = ceil(log2(1/epsilon)) remainder bits).
func NewForCapacity(n int, epsilon float64) *Filter {
	q := uint(1)
	for float64(uint64(1)<<q)*maxLoad < float64(n) {
		q++
	}
	r := uint(1)
	for ; r < 58; r++ {
		if 1.0/float64(uint64(1)<<r) <= epsilon {
			break
		}
	}
	return New(q, r)
}

// SetAutoExpand enables doubling on overflow (the limited expansion
// mechanism the tutorial describes for quotient filters: each doubling
// moves one fingerprint bit from the remainder to the quotient, so the
// false-positive rate doubles and expansion stops when remainder bits run
// out).
func (f *Filter) SetAutoExpand(on bool) { f.autoExpand = on }

// Expansions returns how many doublings have occurred.
func (f *Filter) Expansions() int { return f.expansions }

// Saturated reports whether the filter ran out of fingerprint bits and
// now returns true for every query.
func (f *Filter) Saturated() bool { return f.saturated }

func (f *Filter) fingerprint(key uint64) (fq, fr uint64) {
	h := hashutil.MixSeed(key, f.spec.Seed)
	fp := h & hashutil.Mask(f.t.q+f.r)
	return fp >> f.r, fp & hashutil.Mask(f.r)
}

// Insert adds key. The filter is a multiset of fingerprints: a key that
// collides with a stored one (or is inserted twice) takes its own slot,
// because Delete removes one copy and a shared copy would turn the
// other key into a false negative. It returns ErrFull when the filter
// is at capacity and auto-expansion is off (or exhausted).
func (f *Filter) Insert(key uint64) error {
	if f.saturated {
		return nil // every query already returns true
	}
	if float64(f.t.used+1) > maxLoad*float64(f.t.slots) {
		if !f.autoExpand {
			return core.ErrFull
		}
		if err := f.expand(); err != nil {
			return nil // saturated: behaves as the degenerate always-true filter
		}
	}
	fq, fr := f.fingerprint(key)
	if err := f.t.insert(fq, fr); err != nil {
		return err
	}
	f.n++
	return nil
}

// Contains reports whether key's fingerprint is present.
func (f *Filter) Contains(key uint64) bool {
	if f.saturated {
		return true
	}
	fq, fr := f.fingerprint(key)
	return f.containsFP(fq, fr)
}

// containsFP finishes a lookup whose fingerprint is already split into
// quotient and remainder.
func (f *Filter) containsFP(fq, fr uint64) bool {
	start, length, ok := f.t.findRunFast(fq)
	if !ok {
		return false
	}
	return f.t.runContains(start, length, fr)
}

// ContainsBatch probes every key (see core.BatchFilter), hash-once /
// probe-many: a chunk's fingerprints are all computed up front, then a
// pure load loop fetches every key's occupied-bit word — the one
// potential cache miss an absent key costs, issued back to back with
// no branches so the misses overlap — and a branchless compaction
// keeps only the keys whose quotient is occupied. Only those survivors
// (a load-factor-sized minority for the negative lookups LSM reads
// are dominated by) pay for the cluster walk, which findRunFast runs
// at word granularity.
func (f *Filter) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	if f.saturated {
		for i := range keys {
			out[i] = true
		}
		return
	}
	occWords := f.t.occupied.Words()
	var fqs, frs, ows [core.BatchChunk]uint64
	var live [core.BatchChunk]uint16
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[start : start+len(chunk)]
		for i, k := range chunk {
			fqs[i], frs[i] = f.fingerprint(k)
		}
		for i := range chunk {
			ows[i] = occWords[fqs[i]>>6]
		}
		n := 0
		for i := range chunk {
			occ := ows[i] >> (fqs[i] & 63) & 1
			co[i] = false
			live[n] = uint16(i)
			n += int(occ)
		}
		for _, li := range live[:n] {
			i := int(li)
			s, length, ok := f.t.findRunFast(fqs[i])
			co[i] = ok && f.t.runContains(s, length, frs[i])
		}
	}
}

// Delete removes one copy of key's fingerprint, so a key inserted k
// times stays present until its k-th Delete, and deleting one of two
// colliding keys leaves the other's copy in place. Deleting a key that
// was never inserted may remove a colliding key's copy; callers must
// only delete keys they know to be present. Returns ErrNotFound when
// no copy of the fingerprint is stored.
func (f *Filter) Delete(key uint64) error {
	if f.saturated {
		return nil
	}
	fq, fr := f.fingerprint(key)
	if err := f.t.remove(fq, fr); err != nil {
		return err
	}
	f.n--
	return nil
}

// Len returns the number of stored fingerprints.
func (f *Filter) Len() int { return f.n }

// LoadFactor returns used slots / total slots.
func (f *Filter) LoadFactor() float64 { return float64(f.t.used) / float64(f.t.slots) }

// RemainderBits returns the current remainder width.
func (f *Filter) RemainderBits() uint { return f.r }

// SizeBits returns the physical footprint in bits.
func (f *Filter) SizeBits() int {
	if f.saturated {
		return 64
	}
	return f.t.sizeBits()
}

// Fingerprints returns all stored q+r-bit fingerprints in ascending
// order, one per copy.
func (f *Filter) Fingerprints() []uint64 {
	out := make([]uint64, 0, f.n)
	_ = f.t.each(func(fq, fr uint64) error { // fn never fails; the table is consistent
		out = append(out, fq<<f.r|fr)
		return nil
	})
	return out
}

// expand doubles the table, moving one bit from remainder to quotient.
// When the remainder would drop below 1 bit, the filter saturates and
// expand returns ErrFull.
func (f *Filter) expand() error {
	if f.r <= 1 {
		f.saturated = true
		f.t = nil
		return core.ErrFull
	}
	t, err := f.t.doubled()
	if err != nil {
		return err
	}
	f.t = t
	f.r--
	f.expansions++
	return nil
}

// Merge adds every fingerprint of other (which must share q, r, and
// seed) to f. The result is the multiset sum: it answers true for any
// key either input answered true for, and each copy is deleted on its
// own. It rebuilds into a fresh table and leaves f unchanged on ErrFull.
func (f *Filter) Merge(other *Filter) error {
	if other.t.q != f.t.q || other.r != f.r || other.spec.Seed != f.spec.Seed {
		return core.ErrImmutable
	}
	t := newTable(f.t.q, f.r)
	for _, src := range [...]*table{f.t, other.t} {
		if err := src.each(t.insert); err != nil {
			return err
		}
	}
	f.t = t
	f.n += other.n
	return nil
}

// CheckInvariants validates internal consistency (test hook).
func (f *Filter) CheckInvariants() error {
	if f.saturated {
		return nil
	}
	return f.t.checkInvariants()
}

var (
	_ core.DeletableFilter = (*Filter)(nil)
	_ core.BatchFilter     = (*Filter)(nil)
)
