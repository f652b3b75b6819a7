// Package quotient implements the quotient-filter family (§2.1, §2.6 of
// the tutorial): the classic quotient filter with three metadata bits per
// slot (is_occupied, is_continuation, is_shifted) and Robin-Hood-style
// shifting, the counting quotient filter with the variable-length counter
// encoding, and a maplet variant that stores a small value next to each
// remainder (§2.4). All variants support deletion, iteration, and
// doubling (expansion by sacrificing one fingerprint bit, §2.2).
package quotient

import (
	"errors"
	"fmt"
	"math/bits"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/swar"
)

// table is the shared physical layer: 2^q slots, each holding a packed
// payload (remainder, possibly with an attached value) plus the three
// classic metadata bits. Runs (slots sharing a quotient) are stored
// contiguously and sorted, shifted right of their canonical slot when
// necessary; a cluster is a maximal chain of shifted runs.
//
// Every mutation is one splice (tutorial §2.1): edit a run in place and
// shift the rest of its cluster by the change in length. A run starts at
// its canonical slot or right after the run before it, so the layout is
// a function of the stored runs, whatever order they were written in.
type table struct {
	q     uint // log2 of slot count
	width uint // payload bits per slot (remainder [+ value])
	slots uint64
	mask  uint64

	occupied     *bitvec.Vector
	continuation *bitvec.Vector
	shifted      *bitvec.Vector
	payload      *bitvec.Packed

	used int // physically occupied slots
}

func newTable(q, width uint) *table {
	if q < 1 || q > 40 {
		panic(fmt.Sprintf("quotient: q=%d out of range", q))
	}
	if width < 1 || width > 58 {
		panic(fmt.Sprintf("quotient: payload width %d out of range", width))
	}
	n := uint64(1) << q
	return &table{
		q:            q,
		width:        width,
		slots:        n,
		mask:         n - 1,
		occupied:     bitvec.New(int(n)),
		continuation: bitvec.New(int(n)),
		shifted:      bitvec.New(int(n)),
		payload:      bitvec.NewPacked(int(n), width),
	}
}

// isEmptySlot reports whether slot i holds no element. In a consistent
// table is_occupied implies the slot is full, so emptiness is the
// all-three-bits-zero test.
func (t *table) isEmptySlot(i uint64) bool {
	return !t.occupied.Bit(int(i)) && !t.continuation.Bit(int(i)) && !t.shifted.Bit(int(i))
}

// locate returns where fq's run starts and how many slots it has. An
// unoccupied fq has length 0 and starts where its run would go: its own
// slot if that is empty, else right after the run of the nearest
// occupied quotient below it.
func (t *table) locate(fq uint64) (s, n uint64) {
	if s, n, ok := t.findRunFast(fq); ok {
		return s, n
	}
	if !t.shifted.Bit(int(fq)) {
		return fq, 0 // an unshifted full slot would be fq's own run
	}
	q := (fq - 1) & t.mask
	for !t.occupied.Bit(int(q)) {
		q = (q - 1) & t.mask
	}
	s, n, _ = t.findRunFast(q)
	return (s + n) & t.mask, 0
}

// lowerBound returns the index of the first slot of fq's run whose
// payload is >= v, and whether that slot holds v.
func (t *table) lowerBound(fq, v uint64) (int, bool) {
	s, n := t.locate(fq)
	for i := uint64(0); i < n; i++ {
		if p := t.payload.Get(int((s + i) & t.mask)); p >= v {
			return int(i), p == v
		}
	}
	return int(n), false
}

// insert adds v to fq's run at its sorted position.
func (t *table) insert(fq, v uint64) error {
	at, _ := t.lowerBound(fq, v)
	return t.splice(fq, at, 0, v)
}

// remove deletes one copy of v from fq's run; ErrNotFound if there is none.
func (t *table) remove(fq, v uint64) error {
	at, ok := t.lowerBound(fq, v)
	if !ok {
		return core.ErrNotFound
	}
	return t.splice(fq, at, 1)
}

// replace rewrites one copy of old in fq's run to v. The run keeps its
// slots and its length, so only payloads move: the neighbours v passes
// over slide one slot into the hole old leaves, and no metadata bit or
// the used count changes. ErrNotFound if the run holds no old.
func (t *table) replace(fq, old, v uint64) error {
	at, ok := t.lowerBound(fq, old)
	if !ok {
		return core.ErrNotFound
	}
	s, n := t.locate(fq)
	slot := func(i int) int { return int((s + uint64(i)) & t.mask) }
	for ; at+1 < int(n) && t.payload.Get(slot(at+1)) < v; at++ {
		t.payload.Set(slot(at), t.payload.Get(slot(at+1)))
	}
	for ; at > 0 && t.payload.Get(slot(at-1)) >= v; at-- {
		t.payload.Set(slot(at), t.payload.Get(slot(at-1)))
	}
	t.payload.Set(slot(at), v)
	return nil
}

// splice replaces the del slots at index at of fq's run with ins. The
// rest of the cluster shifts right (into the next empty slot) or left
// (up to the next empty slot or unshifted run start) by len(ins)-del,
// and occupied[fq] ends up set exactly when the run is non-empty. It
// returns ErrFull, before touching anything, if the change would use
// the last empty slot.
func (t *table) splice(fq uint64, at, del int, ins ...uint64) error {
	s, n := t.locate(fq)
	d := len(ins) - del
	if t.used+d > int(t.slots)-1 {
		return core.ErrFull
	}
	p := s + uint64(at)
	for i := 0; i < d; i++ {
		t.shiftRight((p + uint64(del+i)) & t.mask)
	}
	for i := d; i < 0; i++ {
		t.shiftLeft((p+uint64(len(ins)))&t.mask, fq)
	}
	for i, v := range ins {
		t.payload.Set(int((p+uint64(i))&t.mask), v)
	}
	// The written slots and the first survivor behind them are the only
	// ones whose place in the run (first or continuation) can change.
	m := int(n) + d
	for i := at; i <= at+len(ins) && i < m; i++ {
		pos := (s + uint64(i)) & t.mask
		t.continuation.SetTo(int(pos), i > 0)
		t.shifted.SetTo(int(pos), pos != fq)
	}
	t.occupied.SetTo(int(fq), m > 0)
	t.used += d
	return nil
}

// shiftRight opens slot x by moving every slot from x up to the next
// empty one right by one; each moved slot is now off its home. Slot x
// keeps its old contents for the caller to overwrite.
func (t *table) shiftRight(x uint64) {
	e := x
	for !t.isEmptySlot(e) {
		e = (e + 1) & t.mask
	}
	for ; e != x; e = (e - 1) & t.mask {
		prev := (e - 1) & t.mask
		t.payload.Set(int(e), t.payload.Get(int(prev)))
		t.continuation.SetTo(int(e), t.continuation.Bit(int(prev)))
		t.shifted.Set(int(e))
	}
}

// shiftLeft drops slot x, moving the slots behind it left by one up to
// the next empty slot or unshifted run start, and empties the last one.
// fq is the quotient of x's run: each run start crossed claims the next
// occupied quotient, and is shifted unless that is its new slot. The
// emptied slot keeps its payload bits, which nothing reads; rewriting
// them would change saved images relative to earlier releases.
func (t *table) shiftLeft(x, fq uint64) {
	q := fq
	for next := (x + 1) & t.mask; t.shifted.Bit(int(next)); next = (x + 1) & t.mask {
		cont := t.continuation.Bit(int(next))
		if !cont {
			for q = (q + 1) & t.mask; !t.occupied.Bit(int(q)); q = (q + 1) & t.mask {
			}
		}
		t.payload.Set(int(x), t.payload.Get(int(next)))
		t.continuation.SetTo(int(x), cont)
		t.shifted.SetTo(int(x), cont || x != q)
		x = next
	}
	t.continuation.Clear(int(x))
	t.shifted.Clear(int(x))
}

// findRun locates the run of quotient fq with the classic cluster walk.
// It returns the run's slot positions in order, or nil if fq is not
// occupied. Read-only and allocation-light: used by lookups.
func (t *table) findRun(fq uint64) (startPos uint64, length uint64, ok bool) {
	if !t.occupied.Bit(int(fq)) {
		return 0, 0, false
	}
	// Walk left to the cluster start (first unshifted slot).
	b := fq
	for t.shifted.Bit(int(b)) {
		b = (b - 1) & t.mask
	}
	// March run starts (s) and occupied quotients (b) forward in lockstep
	// until b reaches fq.
	s := b
	for b != fq {
		// Skip to the end of the current run.
		for {
			s = (s + 1) & t.mask
			if !t.continuation.Bit(int(s)) {
				break
			}
		}
		// Advance to the next occupied quotient.
		for {
			b = (b + 1) & t.mask
			if t.occupied.Bit(int(b)) {
				break
			}
		}
	}
	// s is the run start for fq; measure its length.
	length = 1
	p := (s + 1) & t.mask
	for t.continuation.Bit(int(p)) {
		length++
		p = (p + 1) & t.mask
	}
	return s, length, true
}

// prevClear returns the largest position p <= pos whose bit in words is
// clear, scanning word-at-a-time instead of bit-by-bit. ok is false if
// every bit at or below pos is set (the caller's cluster wraps past
// slot 0 and must take the circular slow path).
func prevClear(words []uint64, pos uint64) (uint64, bool) {
	wi := int(pos >> 6)
	w := ^words[wi] & (^uint64(0) >> (63 - pos&63))
	for w == 0 {
		wi--
		if wi < 0 {
			return 0, false
		}
		w = ^words[wi]
	}
	return uint64(wi)<<6 + uint64(63-bits.LeadingZeros64(w)), true
}

// onesInRange counts set bits of words in positions [lo, hi), hi > lo,
// no wraparound.
func onesInRange(words []uint64, lo, hi uint64) int {
	loW, hiW := lo>>6, hi>>6
	if loW == hiW {
		return bits.OnesCount64(words[loW] >> (lo & 63) & (uint64(1)<<(hi-lo) - 1))
	}
	c := bits.OnesCount64(words[loW] >> (lo & 63))
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(words[w])
	}
	if rem := hi & 63; rem != 0 {
		c += bits.OnesCount64(words[hiW] & (uint64(1)<<rem - 1))
	}
	return c
}

// selectZero returns the c-th (1-based, c >= 1) clear bit of words at or
// after from. ok is false if the scan would run past limit (table end).
func selectZero(words []uint64, from uint64, c int, limit uint64) (uint64, bool) {
	if from >= limit {
		return 0, false
	}
	wi := from >> 6
	off := uint(from & 63)
	for wi < uint64(len(words)) {
		z := ^words[wi]
		if off > 0 {
			z &= ^uint64(0) << off
		}
		if n := bits.OnesCount64(z); n >= c {
			pos := wi<<6 + uint64(swar.SelectZero64From(words[wi], off, c-1))
			if pos >= limit {
				return 0, false
			}
			return pos, true
		} else {
			c -= n
		}
		wi++
		off = 0
	}
	return 0, false
}

// firstZero returns the first clear bit of words at or after from; ok is
// false if the scan would run past limit.
func firstZero(words []uint64, from uint64, limit uint64) (uint64, bool) {
	if from >= limit {
		return 0, false
	}
	wi := from >> 6
	z := ^words[wi] & (^uint64(0) << (from & 63))
	for z == 0 {
		wi++
		if wi >= uint64(len(words)) {
			return 0, false
		}
		z = ^words[wi]
	}
	pos := wi<<6 + uint64(bits.TrailingZeros64(z))
	if pos >= limit {
		return 0, false
	}
	return pos, true
}

// findRunFast is findRun with the three walks word-accelerated: the
// leftward cluster-start walk becomes a reverse scan for a clear
// shifted bit, the lockstep run-counting march becomes one popcount
// over the occupied bits plus one select on the continuation bits, and
// the run-length measurement becomes a find-first-zero. Each step
// touches O(cluster/64) words instead of O(cluster) bits. Tables too
// small for full words (q < 6) and the rare cluster that wraps past
// slot 0 fall back to the bit-walk, which remains the behavioral
// reference (a property test asserts agreement).
func (t *table) findRunFast(fq uint64) (startPos uint64, length uint64, ok bool) {
	if !t.occupied.Bit(int(fq)) {
		return 0, 0, false
	}
	if t.q < 6 {
		return t.findRun(fq)
	}
	// Cluster start: nearest slot at or left of fq with shifted clear.
	b, okb := prevClear(t.shifted.Words(), fq)
	if !okb {
		return t.findRun(fq) // cluster wraps past slot 0
	}
	// Rank of fq's run within the cluster: occupied quotients in (b, fq].
	c := 0
	if fq > b {
		c = onesInRange(t.occupied.Words(), b+1, fq+1)
	}
	// Run start: the c-th non-continuation slot strictly after b (run
	// starts are exactly the slots whose continuation bit is clear).
	s := b
	if c > 0 {
		var oks bool
		s, oks = selectZero(t.continuation.Words(), b+1, c, t.slots)
		if !oks {
			return t.findRun(fq)
		}
	}
	// Run length: continuation bits set consecutively after s.
	e, oke := firstZero(t.continuation.Words(), s+1, t.slots)
	if !oke {
		return t.findRun(fq) // run reaches the table end: may wrap
	}
	return s, e - s, true
}

// runContains scans the run [start, start+length) for a slot whose
// payload equals v, comparing up to 64/width packed slots per step with
// a SWAR lane compare instead of one Get per slot. Runs that wrap
// around the table end take the per-slot path.
func (t *table) runContains(start, length uint64, v uint64) bool {
	if start+length > t.slots || t.width > 21 {
		// Wrapping or wide-payload runs: per-slot walk (a 22-bit payload
		// leaves at most 2 lanes per window, not worth the setup).
		pos := start
		for i := uint64(0); i < length; i++ {
			if t.payload.Get(int(pos)) == v {
				return true
			}
			pos = (pos + 1) & t.mask
		}
		return false
	}
	words := t.payload.RawWords()
	w := uint64(t.width)
	lanes := uint64(64 / w)
	for off := uint64(0); off < length; off += lanes {
		bitPos := (start + off) * w
		sh := bitPos & 63
		win := words[bitPos>>6]>>sh | words[bitPos>>6+1]<<(64-sh)
		nl := length - off
		if nl > lanes {
			nl = lanes
		}
		if swar.MatchMask(win, v, uint(w), int(nl)) != 0 {
			return true
		}
	}
	return false
}

// runSlots copies the payload values of the run at startPos.
func (t *table) runSlots(startPos, length uint64) []uint64 {
	out := make([]uint64, length)
	pos := startPos
	for i := range out {
		out[i] = t.payload.Get(int(pos))
		pos = (pos + 1) & t.mask
	}
	return out
}

// sizeBits returns the physical footprint: payload plus 3 metadata bits
// per slot.
func (t *table) sizeBits() int {
	return t.payload.SizeBits() + t.occupied.SizeBits() +
		t.continuation.SizeBits() + t.shifted.SizeBits()
}

// walk visits every run in ascending quotient order, calling fn with its
// quotient, first slot and length, and checks the metadata on the way:
// a continuation slot must extend a run and be shifted; a run start must
// claim the next occupied quotient, which lies in its region (maximal
// stretch of full slots) at or before it, and be shifted exactly when it
// is off that slot; no occupied quotient may go unclaimed; and the full
// slots must number used. It returns the first inconsistency, or fn's
// first error, and never reads outside the table.
//
// The march starts after an empty slot a. Circular order from a meets
// the quotients above a before those below it, so the first pass reports
// the runs below a and the second the rest.
func (t *table) walk(fn func(fq, start, n uint64) error) error {
	a := uint64(0)
	for !t.isEmptySlot(a) {
		if a++; a == t.slots {
			return errors.New("no empty slot")
		}
	}
	off := func(x uint64) uint64 { return (x - a) & t.mask }
	for pass := 0; pass < 2; pass++ {
		q, region, full := a, uint64(1), 0
		var start, n uint64
		for i := uint64(1); i <= t.slots; i++ { // i == slots revisits a to end the last run
			pos := (a + i) & t.mask
			empty, cont := t.isEmptySlot(pos), t.continuation.Bit(int(pos))
			if n > 0 && (empty || !cont) {
				if (q < a) == (pass == 0) {
					if err := fn(q, start, n); err != nil {
						return err
					}
				}
				n = 0
			}
			switch {
			case empty:
				region = i + 1
				continue
			case cont:
				if n == 0 || !t.shifted.Bit(int(pos)) {
					return fmt.Errorf("continuation slot %d extends no run", pos)
				}
				n++
			default:
				for q = (q + 1) & t.mask; off(q) < i && !t.occupied.Bit(int(q)); q = (q + 1) & t.mask {
				}
				if !t.occupied.Bit(int(q)) {
					return fmt.Errorf("run at slot %d has no occupied quotient", pos)
				}
				if off(q) < region {
					return fmt.Errorf("occupied quotient %d has no run", q)
				}
				if t.shifted.Bit(int(pos)) != (q != pos) {
					return fmt.Errorf("run of quotient %d at slot %d has the wrong shifted bit", q, pos)
				}
				start, n = pos, 1
			}
			full++
		}
		for q = (q + 1) & t.mask; q != a; q = (q + 1) & t.mask {
			if t.occupied.Bit(int(q)) {
				return fmt.Errorf("occupied quotient %d has no run", q)
			}
		}
		if full != t.used {
			return fmt.Errorf("used=%d but %d slots are full", t.used, full)
		}
	}
	return nil
}

// each calls fn with every stored payload and its quotient, in ascending
// (quotient, run position) order.
func (t *table) each(fn func(fq, v uint64) error) error {
	return t.walk(func(fq, s, n uint64) error {
		for i := uint64(0); i < n; i++ {
			if err := fn(fq, t.payload.Get(int((s+i)&t.mask))); err != nil {
				return err
			}
		}
		return nil
	})
}

// doubled returns a table with twice the slots holding the same entries,
// each giving its top payload bit to the quotient (§2.2 expansion). The
// entries arrive in ascending order, so each lands at the end of its
// cluster and the rebuild shifts nothing.
func (t *table) doubled() (*table, error) {
	nt := newTable(t.q+1, t.width-1)
	err := t.each(func(fq, v uint64) error {
		w := fq<<t.width | v
		return nt.insert(w>>nt.width, w&hashutil.Mask(nt.width))
	})
	return nt, err
}

// checkInvariants validates the table: walk's metadata checks, plus
// findRun and findRunFast agreeing with the walk on every run. readTable
// runs it on every loaded table; tests run it after mutation sequences.
func (t *table) checkInvariants() error {
	return t.walk(func(fq, s, n uint64) error {
		s1, n1, _ := t.findRun(fq)
		s2, n2, _ := t.findRunFast(fq)
		if s1 != s || n1 != n || s2 != s || n2 != n {
			return fmt.Errorf("run %d at (%d,%d): findRun (%d,%d), findRunFast (%d,%d)", fq, s, n, s1, n1, s2, n2)
		}
		return nil
	})
}
