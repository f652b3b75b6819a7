package quotient

import (
	"fmt"
	"math"
	"math/bits"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Infini is an InfiniFilter (Dayan et al., §2.2 of the tutorial): an
// expandable filter whose fingerprints have variable length. When the
// table doubles, every fingerprint gives its lowest bit to the address
// of the larger table, so stored entries need no access to their keys,
// while entries inserted afterwards get full fresh fingerprints. The
// filter so grows without bound at a nearly flat false-positive rate,
// the property experiment E3 contrasts with plain quotient-filter
// doubling (whose rate doubles per expansion) and with chained filters
// (whose query cost grows per link).
//
// A slot holds a code fp | 1<<len in InfiniFreshBits+1 bits: the
// fingerprint under a unary length marker. The code 1 is a void entry,
// whose fingerprint bits are spent; it matches every key of its run.
// Codes sort length-major, so a run holds its voids first and its
// freshest, longest entries last.
//
// The hash bits are read as the original bucket layout read them: the
// quotient is the low q bits of the key's hash and a fingerprint of
// length len the next len bits, so a doubling sends an entry of
// quotient fq to fq | (fp&1)<<q. That is not table.doubled's mapping,
// which takes the new quotient bit from the top of the payload.
type Infini struct {
	spec  core.Spec // Type, initial Q and Seed
	t     *table
	exps  int
	voids int
}

// InfiniFreshBits is the fingerprint length of a newly inserted entry.
// An entry loses one bit per doubling and is void after InfiniFreshBits
// of them.
const InfiniFreshBits = 16

const (
	infiniMaxLoad = 0.9
	infiniSeed    = 0x1F1F1F1F
)

// NewInfini returns an InfiniFilter with 2^q initial slots.
func NewInfini(q uint) (*Infini, error) {
	if q > 40 { // before Spec.Q narrows q to a byte
		return nil, fmt.Errorf("quotient: infini q=%d outside [1, 40]", q)
	}
	return InfiniFromSpec(core.Spec{Type: core.TypeInfini, Q: uint8(q)})
}

// InfiniFromSpec builds an empty InfiniFilter from its construction
// parameters: Spec.Q is the initial log2 slot count, Spec.Seed the hash
// seed (0 selects the default).
func InfiniFromSpec(s core.Spec) (*Infini, error) {
	f, err := infiniShape(s)
	if err != nil {
		return nil, err
	}
	f.t = newTable(uint(s.Q), InfiniFreshBits+1)
	return f, nil
}

// infiniShape is InfiniFromSpec without the table: it validates s, and
// the decoder reads the table from the payload.
func infiniShape(s core.Spec) (*Infini, error) {
	if s.Type != core.TypeInfini {
		return nil, fmt.Errorf("quotient: spec type %d is not TypeInfini", s.Type)
	}
	if s.Q < 1 || s.Q > 40 {
		return nil, fmt.Errorf("quotient: infini q=%d outside [1, 40]", s.Q)
	}
	if s.Seed == 0 {
		s.Seed = infiniSeed
	}
	return &Infini{spec: core.Spec{Type: core.TypeInfini, Q: s.Q, Seed: s.Seed}}, nil
}

// Spec returns the filter's construction parameters: the initial table
// width (the current one less the doublings) and the seed.
func (f *Infini) Spec() core.Spec { return f.spec }

// hash returns key's quotient and its fresh fingerprint bits.
func (f *Infini) hash(key uint64) (fq, probe uint64) {
	h := hashutil.MixSeed(key, f.spec.Seed)
	return h & f.t.mask, h >> f.t.q & hashutil.Mask(InfiniFreshBits)
}

// Insert adds key, doubling first if at the load threshold.
func (f *Infini) Insert(key uint64) error {
	if float64(f.t.used+1) > infiniMaxLoad*float64(f.t.slots) {
		if err := f.expand(); err != nil {
			return err
		}
	}
	fq, probe := f.hash(key)
	return f.t.insert(fq, probe|1<<InfiniFreshBits)
}

// Contains reports whether key may be present: some entry of its run
// holds the key's fingerprint bits at the entry's own length.
func (f *Infini) Contains(key uint64) bool {
	fq, probe := f.hash(key)
	s, n, ok := f.t.findRunFast(fq)
	return ok && f.lastMatch(s, n, probe) >= 0
}

// lastMatch returns the index in the run [s, s+n) of the last code that
// matches probe, a key's fresh fingerprint bits, or -1 if none does.
// Codes sort length-major, so the last match is the longest.
func (f *Infini) lastMatch(s, n, probe uint64) int {
	for i := int(n) - 1; i >= 0; i-- {
		c := f.t.payload.Get(int((s + uint64(i)) & f.t.mask))
		l := uint(bits.Len64(c) - 1)
		if c == probe&hashutil.Mask(l)|1<<l {
			return i
		}
	}
	return -1
}

// Delete removes key's longest matching entry, so void and short
// entries, which stand in for many keys, survive longest. Returns
// ErrNotFound if no entry matches.
func (f *Infini) Delete(key uint64) error {
	fq, probe := f.hash(key)
	s, n := f.t.locate(fq)
	at := f.lastMatch(s, n, probe)
	if at < 0 {
		return core.ErrNotFound
	}
	if f.t.payload.Get(int((s+uint64(at))&f.t.mask)) == 1 {
		f.voids--
	}
	return f.t.splice(fq, s, n, at, 1)
}

// expand doubles the table. An entry of fq's run moves to fq or
// fq | 2^q by its fingerprint's lowest bit, which it gives up: its code
// shifts right by one. A void entry has no bit to give and is copied
// into both. The low half is built first and the high half after it,
// each from an ordered read of the old table: shifting codes right
// keeps their order, so both reads feed one builder in ascending
// (quotient, code) order.
func (f *Infini) expand() error {
	nt := newTable(f.t.q+1, f.t.width)
	b := builder{t: nt}
	voids := 0
	var buf [256]entry
	for half := uint64(0); half < 2; half++ {
		c := f.t.scan()
		for n := c.read(buf[:]); n > 0; n = c.read(buf[:]) {
			es := buf[:0]
			for _, e := range buf[:n] {
				if e.v == 1 || e.v&1 == half {
					e = entry{e.fq | half<<f.t.q, max(e.v>>1, 1)}
					if e.v == 1 {
						voids++
					}
					es = append(es, e)
				}
			}
			if err := b.add(es); err != nil {
				return err
			}
		}
		if c.err != nil {
			return c.err
		}
	}
	f.t, f.voids = nt, voids
	f.exps++
	return nil
}

// Expansions returns the number of doublings so far.
func (f *Infini) Expansions() int { return f.exps }

// FPRBudget returns the filter's nominal false-positive rate at the
// load threshold, infiniMaxLoad·2^-InfiniFreshBits: the rate fresh
// entries provide. Unlike taffy, InfiniFilter's realized rate drifts
// upward linearly with each doubling as fingerprints shorten (the
// trajectory experiments E3 and E23 measure); the budget is the floor,
// not a bound held across unbounded growth.
func (f *Infini) FPRBudget() float64 {
	return infiniMaxLoad * math.Pow(2, -InfiniFreshBits)
}

// Voids returns the number of void (zero-length) entries.
func (f *Infini) Voids() int { return f.voids }

// Len returns the number of stored entries, each void copy counted.
func (f *Infini) Len() int { return f.t.used }

// SizeBits returns the physical footprint in bits.
func (f *Infini) SizeBits() int { return f.t.sizeBits() }

// CheckInvariants validates internal consistency (test hook).
func (f *Infini) CheckInvariants() error { return f.t.checkInvariants() }

var (
	_ core.DeletableFilter = (*Infini)(nil)
	_ core.GrowableFilter  = (*Infini)(nil)
)
