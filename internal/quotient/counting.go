package quotient

import (
	"sort"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// Counting is a counting quotient filter (§2.6): a quotient filter whose
// runs embed variable-length counters, so the space to count a key grows
// with the logarithm of its multiplicity. This is what makes the CQF
// asymptotically optimal on skewed multisets: a key occurring a million
// times costs a handful of extra slots, not a million.
//
// Counter encoding inside a run (remainders ascending, each distinct):
//
//	count 1 of x:  x
//	count 2 of x:  x x
//	count c>=3 of x>0:  x d_k ... d_0 x
//	   where d_k..d_0 encode c-3 in base 2^r-1; stored digits skip the
//	   value x (digit >= x is stored +1) so the terminating x is
//	   unambiguous, and a 0 digit is prepended when the leading digit
//	   would be >= x, so the first slot after x descends — the decoder's
//	   signal that a counter follows rather than the next remainder.
//	count c of x=0:  c slots of 0 (unary).
//	   Remainder 0 cannot use the descent trick (nothing is below 0).
//	   The expected cost is c·2^-r slots, negligible for r >= 8; this is
//	   a documented simplification of the CQF paper's 0-escape.
type Counting struct {
	t        *table
	r        uint
	seed     uint64
	identity bool // fingerprint = key & mask (caller pre-mixes)
	distinct int
	total    uint64
}

// NewCounting returns a counting quotient filter with 2^q slots and
// r-bit remainders. r must be at least 2 for the counter digits to have
// a usable base.
func NewCounting(q, r uint) *Counting {
	if r < 2 {
		panic("quotient: counting filter needs r >= 2")
	}
	return &Counting{t: newTable(q, r), r: r, seed: 0xC0F0C0F0}
}

// NewCountingForCapacity sizes the filter for n distinct keys at error
// rate delta.
func NewCountingForCapacity(n int, delta float64) *Counting {
	q := uint(1)
	for float64(uint64(1)<<q)*maxLoad < float64(n)*1.1 {
		q++
	}
	r := uint(2)
	for ; r < 58; r++ {
		if 1.0/float64(uint64(1)<<r) <= delta {
			break
		}
	}
	return &Counting{t: newTable(q, r), r: r, seed: 0xC0F0C0F0}
}

// NewCountingIdentity returns a counting filter whose fingerprint is the
// key itself truncated to q+r bits. When every key fits in q+r bits (and
// the caller pre-mixes keys for spread, e.g. an odd-multiplier bijection)
// the filter is an exact multiset: no two distinct keys share a
// fingerprint. This is how Squeakr's exact mode and Mantis get exactness
// out of a quotient filter.
func NewCountingIdentity(q, r uint) *Counting {
	c := NewCounting(q, r)
	c.identity = true
	return c
}

func (c *Counting) fingerprint(key uint64) (fq, fr uint64) {
	fp := key
	if !c.identity {
		fp = hashutil.MixSeed(key, c.seed)
	}
	fp &= hashutil.Mask(c.t.q + c.r)
	return fp >> c.r, fp & hashutil.Mask(c.r)
}

// pair is a decoded (remainder, count).
type pair struct {
	rem   uint64
	count uint64
}

// decodeCounts expands a run's raw slot sequence into (remainder, count)
// pairs, inverting the encoding above.
func (c *Counting) decodeCounts(slots []uint64) []pair {
	var out []pair
	i := 0
	// Unary-coded zeros first.
	zeros := uint64(0)
	for i < len(slots) && slots[i] == 0 {
		zeros++
		i++
	}
	if zeros > 0 {
		out = append(out, pair{rem: 0, count: zeros})
	}
	base := hashutil.Mask(c.r) // 2^r - 1
	for i < len(slots) {
		x := slots[i]
		i++
		if i >= len(slots) || slots[i] > x {
			out = append(out, pair{rem: x, count: 1})
			continue
		}
		if slots[i] == x {
			out = append(out, pair{rem: x, count: 2})
			i++
			continue
		}
		// Descent: counter digits until the terminating x.
		val := uint64(0)
		for i < len(slots) && slots[i] != x {
			s := slots[i]
			d := s
			if s > x {
				d = s - 1
			}
			val = val*base + d
			i++
		}
		i++ // skip terminator
		out = append(out, pair{rem: x, count: val + 3})
	}
	return out
}

// encodeCounts flattens (remainder, count) pairs (ascending remainders)
// back into the run's raw slot sequence.
func (c *Counting) encodeCounts(pairs []pair) []uint64 {
	var out []uint64
	base := hashutil.Mask(c.r)
	for _, p := range pairs {
		if p.count == 0 {
			continue
		}
		x := p.rem
		if x == 0 {
			for j := uint64(0); j < p.count; j++ {
				out = append(out, 0)
			}
			continue
		}
		switch p.count {
		case 1:
			out = append(out, x)
		case 2:
			out = append(out, x, x)
		default:
			out = append(out, x)
			v := p.count - 3
			// Digits of v in base 2^r-1, most significant first.
			var digits []uint64
			if v == 0 {
				digits = []uint64{0}
			} else {
				for v > 0 {
					digits = append([]uint64{v % base}, digits...)
					v /= base
				}
			}
			// Store digits skipping the value x.
			stored := make([]uint64, len(digits))
			for j, d := range digits {
				if d >= x {
					d++
				}
				stored[j] = d
			}
			if stored[0] >= x {
				stored = append([]uint64{0}, stored...)
			}
			out = append(out, stored...)
			out = append(out, x)
		}
	}
	return out
}

// run decodes fq's counter run, which starts at slot s and is n slots
// long.
func (c *Counting) run(fq uint64) (pairs []pair, s, n uint64) {
	s, n = c.t.locate(fq)
	return c.decodeCounts(c.t.runSlots(s, n)), s, n
}

// search returns the index of the first pair whose remainder is >= fr,
// and whether it is fr.
func search(pairs []pair, fr uint64) (int, bool) {
	i := sort.Search(len(pairs), func(i int) bool { return pairs[i].rem >= fr })
	return i, i < len(pairs) && pairs[i].rem == fr
}

// Add inserts delta occurrences of key.
func (c *Counting) Add(key uint64, delta uint64) error {
	if delta == 0 {
		return nil
	}
	fq, fr := c.fingerprint(key)
	pairs, s, n := c.run(fq)
	i, found := search(pairs, fr)
	if !found {
		pairs = append(pairs, pair{})
		copy(pairs[i+1:], pairs[i:])
		pairs[i] = pair{rem: fr}
	}
	pairs[i].count += delta
	if err := c.t.splice(fq, s, n, 0, int(n), c.encodeCounts(pairs)...); err != nil {
		return err
	}
	if !found {
		c.distinct++
	}
	c.total += delta
	return nil
}

// Insert adds one occurrence of key.
func (c *Counting) Insert(key uint64) error { return c.Add(key, 1) }

// Remove deletes delta occurrences of key (clamped at zero). Removing a
// key never inserted may decrement a colliding key's count; callers must
// only remove what they inserted. Returns ErrNotFound if the fingerprint
// is absent.
func (c *Counting) Remove(key uint64, delta uint64) error {
	if delta == 0 {
		return nil
	}
	fq, fr := c.fingerprint(key)
	pairs, s, n := c.run(fq)
	i, found := search(pairs, fr)
	if !found {
		return core.ErrNotFound
	}
	d := min(delta, pairs[i].count)
	pairs[i].count -= d // encodeCounts drops a pair whose count reaches zero
	if err := c.t.splice(fq, s, n, 0, int(n), c.encodeCounts(pairs)...); err != nil {
		return err
	}
	if pairs[i].count == 0 {
		c.distinct--
	}
	c.total -= d
	return nil
}

// Delete removes one occurrence of key.
func (c *Counting) Delete(key uint64) error { return c.Remove(key, 1) }

// Count returns the multiplicity of key (0 if absent; may overcount on
// fingerprint collision, never undercounts).
func (c *Counting) Count(key uint64) uint64 {
	fq, fr := c.fingerprint(key)
	pairs, _, _ := c.run(fq)
	if i, found := search(pairs, fr); found {
		return pairs[i].count
	}
	return 0
}

// Contains reports whether key may be present.
func (c *Counting) Contains(key uint64) bool { return c.Count(key) > 0 }

// Distinct returns the number of distinct fingerprints stored.
func (c *Counting) Distinct() int { return c.distinct }

// Total returns the total multiplicity stored.
func (c *Counting) Total() uint64 { return c.total }

// LoadFactor returns used slots / total slots.
func (c *Counting) LoadFactor() float64 { return float64(c.t.used) / float64(c.t.slots) }

// SizeBits returns the physical footprint in bits.
func (c *Counting) SizeBits() int { return c.t.sizeBits() }

// Pairs returns every (fingerprint, count) in ascending fingerprint
// order. Used by iteration-driven applications (Squeakr, deBGR, Mantis).
func (c *Counting) Pairs() []struct{ Fingerprint, Count uint64 } {
	out := make([]struct{ Fingerprint, Count uint64 }, 0, c.distinct)
	_ = c.t.walk(func(fq, s, n uint64) error { // fn never fails; the table is consistent
		for _, p := range c.decodeCounts(c.t.runSlots(s, n)) {
			out = append(out, struct{ Fingerprint, Count uint64 }{fq<<c.r | p.rem, p.count})
		}
		return nil
	})
	return out
}

// CheckInvariants validates internal consistency (test hook).
func (c *Counting) CheckInvariants() error { return c.t.checkInvariants() }

var _ core.CountingFilter = (*Counting)(nil)
