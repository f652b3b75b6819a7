package quotient

import (
	"math/bits"

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
	return m.appendFP(nil, fq, fr)
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

// GetBatch resolves every key's candidate values in one pass (see
// ProbeBatch). Key i's candidates land in dst[ends[i-1]:ends[i]]
// (ends[-1] reads as 0). Both slices are appended to and returned so
// callers can pool the backing arrays.
func (m *Maplet) GetBatch(keys []uint64, ends []int32, dst []uint64) ([]int32, []uint64) {
	var first [core.BatchChunk]uint64
	var count [core.BatchChunk]uint32
	for start := 0; start < len(keys); start += core.BatchChunk {
		chunk := keys[start:min(start+core.BatchChunk, len(keys))]
		// The extra candidates are appended to dst, then spread out from
		// the top down so that each key's first candidate can sit in front
		// of them: a key's block only ever moves up, past spilled values
		// of keys already placed.
		base := len(dst)
		dst = m.ProbeBatch(chunk, nil, first[:], count[:], dst)
		total := 0
		for _, c := range count[:len(chunk)] {
			total += int(c)
		}
		spill := len(dst)
		dst = append(dst, make([]uint64, base+total-len(dst))...)
		at := base + total
		for j := len(chunk) - 1; j >= 0; j-- {
			c := int(count[j])
			if c == 0 {
				continue
			}
			spill -= c - 1
			at -= c
			copy(dst[at+1:at+c], dst[spill:spill+c-1])
			dst[at] = first[j]
		}
		for j := range chunk {
			base += int(count[j])
			ends = append(ends, int32(base))
		}
	}
	return ends, dst
}

// ProbeBatch is the maplet's batch probe, hash-once / probe-many like
// Filter.ContainsBatch. It resolves the keys keys[at[j]], or keys[j]
// when at is nil: at most core.BatchChunk of them. Key j's candidate
// count goes to count[j] and, when it has one, its first (smallest)
// candidate to first[j]. Any further candidates are appended to more,
// key by key, in value order, and the extended slice is returned.
//
// It runs in passes, and only the first two see every key. The hash
// pass computes every fingerprint. A pure load pass fetches each
// quotient's occupied word, so the cache misses overlap, and keeps the
// keys whose quotient is occupied. For those, a decode pass finds the
// run in its quotient's shifted and continuation words, and a compare
// pass reads the payload window at the run's start and matches every
// slot in it at once. The few runs the word or the window does not
// hold, and the keys with more than one candidate, take the scalar
// walk: a slot scan of the run, which findRunFast locates unless the
// decode found its start. No pass before that walk branches on a key.
func (m *Maplet) ProbeBatch(keys []uint64, at []int32, first []uint64, count []uint32, more []uint64) []uint64 {
	n := len(keys)
	if at != nil {
		n = len(at)
	}
	if n > core.BatchChunk {
		panic("quotient: ProbeBatch takes at most core.BatchChunk keys")
	}
	first, count = first[:n], count[:n]
	t := m.t
	// live lists the occupied keys; runs[k] holds live key k's decoded
	// run start, and then the list the scalar walk takes, st<<16 | j.
	var fqs, frs, con, runs [core.BatchChunk]uint64
	var live [core.BatchChunk]uint16
	if at == nil {
		copy(fqs[:n], keys)
	} else {
		for j, i := range at {
			fqs[j] = keys[i]
		}
	}
	seed, fpMask, r, rmask, mix := m.seed, hashutil.Mask(t.q+m.r), m.r&63, hashutil.Mask(m.r), !m.identity
	for j := 0; j < n; j++ {
		fp := fqs[j]
		if mix {
			fp = hashutil.MixSeed(fp, seed)
		}
		fp &= fpMask
		fqs[j], frs[j] = fp>>r, fp&rmask
	}
	occW, shfW, conW := t.occupied.Words(), t.shifted.Words(), t.continuation.Words()
	nl := 0
	for j := 0; j < n; j++ {
		fq := fqs[j]
		count[j] = 0
		live[nl] = uint16(j)
		nl += int(occW[fq>>6] >> (fq & 63) & 1)
	}
	// Decode: find each run in its quotient's word. The cluster holding
	// fq starts at cs, the last slot at or below it that is not shifted;
	// fq's run is the c-th run of the cluster, c the occupied quotients in
	// [cs, fq], and starts at the c-th clear continuation bit from cs.
	// A run the word does not hold, or past the fourth of its cluster,
	// gets a start of 64, which marks it for the scalar walk.
	for k, j := range live[:nl] {
		fq := fqs[j]
		wi, b := fq>>6, fq&63
		upto := ^uint64(0) >> (63 - b)
		x := ^shfW[wi] & upto
		cs := uint64(63-bits.LeadingZeros64(x|1)) & 63
		from := ^uint64(0) << cs
		c := bits.OnesCount64(occW[wi] & upto & from)
		cw := conW[wi]
		z1 := ^cw & from
		z2 := z1 & (z1 - 1)
		z3 := z2 & (z2 - 1)
		z4 := z3 & (z3 - 1)
		z := z1
		if c >= 2 {
			z = z2
		}
		if c >= 3 {
			z = z3
		}
		if c >= 4 {
			z = z4
		}
		st := uint64(bits.TrailingZeros64(z))
		if c > 4 || x == 0 {
			st = 64
		}
		runs[k], con[k] = st, cw
	}
	// Compare: the payload window at the run's start holds lanes whole
	// slots (none below 64 slots, where a metadata word does not cover
	// 64 of them). A slot's remainder field matches when it XORs to zero
	// with fr's: adding the field's low bits to all-ones carries into its
	// top bit exactly when they are not all zero, and never past it. A
	// lane counts when the run reaches it; a run longer than the window
	// is walked.
	pw, w := t.payload.RawWords(), uint64(t.width)
	vb, vmask := uint64(m.vBits)&63, hashutil.Mask(m.vBits)
	lanes := uint64(0)
	if t.q >= 6 {
		lanes = 64 / w
	}
	rep := uint64(0) // the lowest bit of every lane
	for i := uint64(0); i < lanes; i++ {
		rep |= 1 << (i * w)
	}
	fields := rmask << vb * rep
	tops := uint64(1) << ((w - 1) & 63) * rep
	lows := fields &^ tops
	mask := t.mask
	ns := 0
	for k, j := range live[:nl] {
		fq, st := fqs[j], runs[k]
		// The run is [s, s+l); l is 65 when it goes past the word.
		l := uint64(bits.TrailingZeros64(^con[k]>>(st&63)>>1)) + 1
		bp := (fq&^63 | st&63) & mask * w // in the table when it holds under 64 slots
		wi, sh := bp>>6, bp&63
		e := pw[wi]>>sh | pw[wi+1]<<1<<(63-sh)
		x := (e ^ frs[j]<<vb*rep) & fields
		span := min(l, lanes) * w // window bits the run covers
		hit := ^((x&lows + lows) | x) & tops & (^uint64(0) >> ((64 - span) & 63))
		c := uint64(bits.OnesCount64(hit))
		first[j] = e >> ((uint64(bits.TrailingZeros64(hit)) + 1 - w) & 63) & vmask
		count[j] = uint32(c)
		_, over := bits.Sub64(lanes, l, 0) // 1: the run is longer than the window
		_, multi := bits.Sub64(1, c, 0)
		runs[ns] = st<<16 | uint64(j)
		ns += int(over | multi | st>>6)
	}
	// The listed keys walk their run slot by slot. The run is sorted by
	// payload, so fr's entries are adjacent and the scan stops at the
	// first larger remainder.
	for _, js := range runs[:ns] {
		j, st := js&0xFFFF, js>>16
		fq, fr := fqs[j], frs[j]
		// A run whose start the decode found only needs its end.
		s, l, ok := fq&^63|st, uint64(0), false
		if st < 64 {
			var e uint64
			e, ok = firstZero(conW, s+1, t.slots)
			l = e - s
		}
		if !ok {
			s, l, _ = t.findRunFast(fq)
		}
		c := uint32(0)
		for i := uint64(0); i < l; i++ {
			e := t.payload.Get(int((s + i) & t.mask))
			if r := e >> vb; r > fr {
				break
			} else if r < fr {
				continue
			}
			if c == 0 {
				first[j] = e & vmask
			} else {
				more = append(more, e&vmask)
			}
			c++
		}
		count[j] = c
	}
	return more
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

// Update replaces the value of an existing (key, oldValue) entry. The
// fingerprint, and so the run, stays the same: the entry is rewritten
// in place, Len and LoadFactor are unchanged, and Update never fails
// for space. Returns ErrNotFound, changing nothing, if no matching
// entry exists.
func (m *Maplet) Update(key, oldValue, newValue uint64) error {
	fq, fr := m.fingerprint(key)
	mask := hashutil.Mask(m.vBits)
	return m.t.replace(fq, fr<<m.vBits|oldValue&mask, fr<<m.vBits|newValue&mask)
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
	c := m.t.scan() // the table is consistent, so the read never fails
	var buf [256]entry
	for n := c.read(buf[:]); n > 0; n = c.read(buf[:]) {
		for _, e := range buf[:n] {
			out = append(out, struct{ Fingerprint, Value uint64 }{
				Fingerprint: e.fq<<m.r | e.v>>m.vBits,
				Value:       e.v & hashutil.Mask(m.vBits),
			})
		}
	}
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

// FinalSlots returns the slot count after the last doubling Expand
// allows, when one remainder bit is left: 2^(q+r−1).
func (m *Maplet) FinalSlots() uint64 { return 1 << (m.t.q + m.r - 1) }

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

var dbgSlow, dbgN int
