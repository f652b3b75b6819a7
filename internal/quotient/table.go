// Package quotient implements the quotient-filter family (§2.1, §2.6 of
// the tutorial): the classic quotient filter with three metadata bits per
// slot (is_occupied, is_continuation, is_shifted) and Robin-Hood-style
// shifting, the counting quotient filter with the variable-length counter
// encoding, a maplet variant that stores a small value next to each
// remainder (§2.4), and the InfiniFilter, whose slots hold fingerprints
// of variable length (§2.2). All variants support deletion, iteration,
// and doubling (expansion by sacrificing one fingerprint bit, §2.2).
//
// The variants share one slot table (table.go). An edit locates its run
// once and shifts its cluster by words; a doubling or a merge reads the
// entries in sorted order and lays them down in one pass, as §2.1–§2.2
// describe for sorted fingerprints.
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
// Every edit (insert, remove, replace) locates its run once, with word
// scans like the lookups' findRunFast, and is one splice (tutorial
// §2.1): edit the run in place and shift the rest of its cluster by the
// change in length. A right shift moves words: the packed payload and
// continuation bits of the stretch move up one slot in bulk. A left
// shift (a delete) still moves slot by slot.
//
// A run starts at its canonical slot or right after the run before it,
// so the layout is a function of the stored runs, whatever order they
// were written in. That is what lets a doubling or a merge skip the
// splices: a cursor reads the entries in ascending order and a builder
// lays them down in one pass, producing the table insert would have.
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
// occupied quotient below it. Both cases are word scans (findRunFast,
// and for an unoccupied quotient inside a cluster the same rank and
// select); a cluster that wraps past slot 0 takes the bit walk.
func (t *table) locate(fq uint64) (s, n uint64) {
	if s, n, ok := t.findRunFast(fq); ok {
		return s, n
	}
	if !t.shifted.Bit(int(fq)) {
		return fq, 0 // an unshifted full slot would be fq's own run
	}
	// fq lies inside a cluster that starts at b: its run would start
	// where the run after those of the occupied quotients in [b, fq)
	// does, the m-th run start after b.
	if b, ok := prevClear(t.shifted.Words(), fq); ok {
		m := 1
		if fq > b+1 {
			m += onesInRange(t.occupied.Words(), b+1, fq)
		}
		if s, ok := selectZero(t.continuation.Words(), b+1, m, t.slots); ok {
			return s, 0
		}
	}
	q := (fq - 1) & t.mask
	for !t.occupied.Bit(int(q)) {
		q = (q - 1) & t.mask
	}
	s, n, _ = t.findRunFast(q)
	return (s + n) & t.mask, 0
}

// lowerBound returns the index of the first slot of the run [s, s+n)
// whose payload is >= v, and whether that slot holds v.
func (t *table) lowerBound(s, n, v uint64) (int, bool) {
	for i := uint64(0); i < n; i++ {
		if p := t.payload.Get(int((s + i) & t.mask)); p >= v {
			return int(i), p == v
		}
	}
	return int(n), false
}

// insert adds v to fq's run at its sorted position. Like remove and
// replace it locates the run once and hands it to the splice.
func (t *table) insert(fq, v uint64) error {
	s, n := t.locate(fq)
	at, _ := t.lowerBound(s, n, v)
	return t.splice(fq, s, n, at, 0, v)
}

// remove deletes one copy of v from fq's run; ErrNotFound if there is none.
func (t *table) remove(fq, v uint64) error {
	s, n := t.locate(fq)
	at, ok := t.lowerBound(s, n, v)
	if !ok {
		return core.ErrNotFound
	}
	return t.splice(fq, s, n, at, 1)
}

// replace rewrites one copy of old in fq's run to v. The run keeps its
// slots and its length, so only payloads move: when v keeps the run's
// order (the usual case, a maplet entry that changes only its value
// bits among distinct remainders) it is one write in place; otherwise
// the neighbours v passes over slide one slot into the hole old leaves.
// No metadata bit or the used count changes. ErrNotFound if the run
// holds no old.
func (t *table) replace(fq, old, v uint64) error {
	s, n := t.locate(fq)
	at, ok := t.lowerBound(s, n, old)
	if !ok {
		return core.ErrNotFound
	}
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

// splice replaces the del slots at index at of fq's run, which locate
// found at [s, s+n), with ins. The rest of the cluster shifts right
// (into the next empty slot) or left (up to the next empty slot or
// unshifted run start) by len(ins)-del, and occupied[fq] ends up set
// exactly when the run is non-empty. It returns ErrFull, before
// touching anything, if the change would use the last empty slot.
func (t *table) splice(fq, s, n uint64, at, del int, ins ...uint64) error {
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
// keeps its old contents for the caller to overwrite. It works on
// words: one scan of the three metadata vectors finds the empty slot e,
// the packed payload and continuation bits of [x, e) move up one slot
// in bulk, and the shifted bits of (x, e] are set in bulk. A range that
// wraps past the last slot moves as two ranges and the slot between.
func (t *table) shiftRight(x uint64) {
	e := t.nextEmpty(x)
	if e >= x {
		t.moveUp(x, e)
		return
	}
	t.moveUp(0, e)
	t.payload.Set(0, t.payload.Get(int(t.mask)))
	t.continuation.SetTo(0, t.continuation.Bit(int(t.mask)))
	t.shifted.Set(0)
	t.moveUp(x, t.mask)
}

// moveUp moves the payload and continuation bits of slots [lo, hi) to
// [lo+1, hi+1) and sets the shifted bits of [lo+1, hi+1); hi < slots.
func (t *table) moveUp(lo, hi uint64) {
	if lo == hi {
		return
	}
	w := uint64(t.width)
	shiftBitsUp(t.payload.RawWords(), lo*w, hi*w, w)
	shiftBitsUp(t.continuation.Words(), lo, hi, 1)
	setBits(t.shifted.Words(), lo+1, hi+1)
}

// nextEmpty returns the first empty slot at or after x, circularly. The
// caller guarantees one exists (splice keeps a slot free).
func (t *table) nextEmpty(x uint64) uint64 {
	occ, cont, shf := t.occupied.Words(), t.continuation.Words(), t.shifted.Words()
	last := uint64(len(occ) - 1)
	wi := x >> 6
	z := ^(occ[wi] | cont[wi] | shf[wi]) & (^uint64(0) << (x & 63))
	for i := 0; ; i++ {
		if wi == last && t.slots&63 != 0 {
			z &= uint64(1)<<(t.slots&63) - 1
		}
		if z != 0 {
			return wi<<6 | uint64(bits.TrailingZeros64(z))
		}
		if i > len(occ) {
			panic("quotient: no empty slot")
		}
		if wi++; wi > last {
			wi = 0
		}
		z = ^(occ[wi] | cont[wi] | shf[wi])
	}
}

// shiftBitsUp moves bits [lo, hi) of words up by k (0 < k < 64) to
// [lo+k, hi+k), leaving every bit outside the destination as it was. It
// writes from the top word down, so each word still holds its old bits
// when the word above reads them.
func shiftBitsUp(words []uint64, lo, hi, k uint64) {
	dlo, dhi := lo+k, hi+k
	for wi := (dhi - 1) >> 6; ; wi-- {
		src := words[wi] << k
		if wi > 0 {
			src |= words[wi-1] >> (64 - k)
		}
		m := ^uint64(0)
		if b := wi << 6; dlo > b {
			m <<= dlo - b
		}
		if e := wi<<6 + 64; dhi < e {
			m &= ^uint64(0) >> (e - dhi)
		}
		words[wi] = words[wi]&^m | src&m
		if wi<<6 <= dlo {
			return
		}
	}
}

// setBits sets bits [lo, hi) of words, hi > lo.
func setBits(words []uint64, lo, hi uint64) {
	loW, hiW := lo>>6, (hi-1)>>6
	if loW == hiW {
		words[loW] |= (^uint64(0) >> (64 - (hi - lo))) << (lo & 63)
		return
	}
	words[loW] |= ^uint64(0) << (lo & 63)
	for w := loW + 1; w < hiW; w++ {
		words[w] = ^uint64(0)
	}
	words[hiW] |= ^uint64(0) >> (63 - (hi-1)&63)
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

// entry is one stored payload and the quotient of its run.
type entry struct{ fq, v uint64 }

// doubled returns a table with twice the slots holding the same entries,
// each giving its top payload bit to the quotient (§2.2 expansion). A
// run's entries with top bit 0 sort before those with top bit 1, so the
// ascending read of t is the ascending order of the doubled entries, and
// one ordered pass builds the new table.
func (t *table) doubled() (*table, error) {
	nt := newTable(t.q+1, t.width-1)
	b, c := builder{t: nt}, t.scan()
	low := hashutil.Mask(nt.width)
	var buf [256]entry
	for n := c.read(buf[:]); n > 0; n = c.read(buf[:]) {
		es := buf[:n]
		for i, e := range es {
			w := e.fq<<t.width | e.v
			es[i] = entry{w >> nt.width, w & low}
		}
		if err := b.add(es); err != nil {
			return nil, err
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return nt, nil
}

// merged returns a table of x's geometry holding the entries of x and y
// (the multiset sum), built in one ordered pass over their merged
// ascending reads. ErrFull if the sum does not leave a slot free.
func merged(x, y *table) (*table, error) {
	nt := newTable(x.q, x.width)
	b := builder{t: nt}
	xs, ys := stream{c: x.scan()}, stream{c: y.scan()}
	for {
		xe, xok := xs.head()
		ye, yok := ys.head()
		var next *stream
		switch {
		case xok && (!yok || xe.fq < ye.fq || xe.fq == ye.fq && xe.v <= ye.v):
			next = &xs
		case yok:
			next = &ys
		default:
			if err := errors.Join(xs.c.err, ys.c.err); err != nil {
				return nil, err
			}
			return nt, nil
		}
		if err := b.add(next.es[:1]); err != nil {
			return nil, err
		}
		next.es = next.es[1:]
	}
}

// stream buffers a cursor's reads for a merge.
type stream struct {
	c   *cursor
	buf [64]entry
	es  []entry
}

// head returns the stream's next entry without taking it.
func (s *stream) head() (entry, bool) {
	if len(s.es) == 0 {
		s.es = s.buf[:s.c.read(s.buf[:])]
	}
	if len(s.es) == 0 {
		return entry{}, false
	}
	return s.es[0], true
}

// builder fills an empty table from entries given in ascending
// (quotient, payload) order, the way a sorted quotient filter is
// rebuilt in one pass: each entry goes to max(home slot, previous slot
// + 1) and its three metadata bits are set directly, with no locate and
// no splice. Entries pushed past the last slot wrap to slot 0 and
// onwards, each opening its slot with shiftRight, so they and the low
// runs they push end up exactly where insert would put them: the layout
// is a function of the stored runs.
type builder struct {
	t    *table
	end  uint64 // one past the last slot written, counted past the table end
	last entry  // the last entry added
}

// add appends es, which must continue the ascending order.
func (b *builder) add(es []entry) error {
	t := b.t
	occ, cont, shf := t.occupied.Words(), t.continuation.Words(), t.shifted.Words()
	pw, width, slots := t.payload.RawWords(), uint64(t.width), t.slots
	used, end, last := t.used, b.end, b.last
	i := 0
	for ; i < len(es); i++ {
		e := es[i]
		p := max(e.fq, end)
		if p >= slots || used+1 >= int(slots) || used > 0 && (e.fq < last.fq || e.fq == last.fq && e.v < last.v) {
			break // the loop below wraps this entry and the rest, or fails
		}
		// A slot no entry has reached holds only zero bits, so each
		// write is an OR; an entry that fits one word ORs zero into the
		// next (the packed array has a pad word).
		bp := p * width
		pw[bp>>6] |= e.v << (bp & 63)
		pw[bp>>6+1] |= e.v >> (64 - bp&63)
		if used > 0 && e.fq == last.fq {
			cont[p>>6] |= 1 << (p & 63)
		}
		if p != e.fq {
			shf[p>>6] |= 1 << (p & 63)
		}
		occ[e.fq>>6] |= 1 << (e.fq & 63)
		used, end, last = used+1, p+1, e
	}
	t.used, b.end, b.last = used, end, last
	for _, e := range es[i:] {
		if err := check(b.last, e, t.used, slots); err != nil {
			return err
		}
		p := max(e.fq, b.end) - slots
		t.shiftRight(p)
		t.payload.Set(int(p), e.v)
		t.continuation.SetTo(int(p), e.fq == b.last.fq)
		t.shifted.Set(int(p))
		t.occupied.Set(int(e.fq))
		t.used, b.end, b.last = t.used+1, b.end+1, e
	}
	return nil
}

// check returns why e cannot follow last as the next of used entries in
// a table of the given slots: it breaks the ascending order, or it
// would fill the last empty slot.
func check(last, e entry, used int, slots uint64) error {
	if used > 0 && (e.fq < last.fq || e.fq == last.fq && e.v < last.v) {
		return fmt.Errorf("entry (%d, %d) after (%d, %d) is out of order", e.fq, e.v, last.fq, last.v)
	}
	if used+1 >= int(slots) {
		return core.ErrFull
	}
	return nil
}

// cursor reads a table's entries in ascending (quotient, payload) order
// by word scans: it starts at the run of the smallest occupied quotient
// and visits every full slot once, up to the last slot and then from
// slot 0 to where it began (those slots hold only the tail of a cluster
// that wraps past the last slot). Each run start claims the next
// occupied quotient. It checks the metadata it crosses and, at the end,
// that it read used entries in one run per occupied quotient; the first
// inconsistency ends the read and is left in err.
type cursor struct {
	t       *table
	s0      uint64 // the first slot read
	hi      uint64 // end of the current stretch: slots, then s0
	wi      uint64 // the metadata word being read
	full    uint64 // its full slots not yet read
	wrapped bool   // reading [0, s0)
	done    bool
	q, prev uint64 // the current run's quotient; the last slot read
	n, runs int
	err     error
}

// scan returns a cursor over t's entries.
func (t *table) scan() *cursor {
	c := &cursor{t: t, hi: t.slots, q: ^uint64(0)} // the first run claims nextOne(q+1 = 0)
	full := 0
	for wi := range t.occupied.Words() {
		full += bits.OnesCount64(t.fullBits(uint64(wi), 0, t.slots))
	}
	if full == int(t.slots) {
		c.err, c.done = errors.New("no empty slot"), true
		return c
	}
	// With an empty slot the run walks end, whatever the other bits say.
	if q0, ok := nextOne(t.occupied.Words(), 0, t.slots); ok {
		c.s0, _, _ = t.findRunFast(q0)
	}
	c.wi = c.s0 >> 6
	c.full = t.fullBits(c.wi, c.s0, c.hi)
	return c
}

// read fills dst with the next entries and returns how many it read: 0
// at the end of the table, and fewer than len(dst) only at the end or
// at the first inconsistency (then err is set). Its state lives in
// locals for the loop and goes back to c on return.
func (c *cursor) read(dst []entry) int {
	t := c.t
	occ, cont, shf := t.occupied.Words(), t.continuation.Words(), t.shifted.Words()
	pw, width, low := t.payload.RawWords(), uint64(t.width), hashutil.Mask(t.width)
	mask, slots := t.mask, t.slots
	wi, full, q, prev, runs := c.wi, c.full, c.q, c.prev, c.runs
	hi, wrapped, done, first := c.hi, c.wrapped, c.done, c.n == 0
	var err error
	n := 0
	for ; n < len(dst) && err == nil; n++ {
		for full == 0 && !done {
			switch {
			case wi<<6+64 < hi:
				wi++
			case wrapped || c.s0 == 0:
				done = true
				continue
			default:
				wrapped, hi, wi = true, c.s0, 0
			}
			full = t.fullBits(wi, 0, hi)
		}
		if done {
			break
		}
		b := full & -full
		p := wi<<6 | uint64(bits.TrailingZeros64(b))
		full &^= b
		shifted := shf[wi]&b != 0
		if cont[wi]&b != 0 {
			if first || p != (prev+1)&mask || !shifted {
				err = fmt.Errorf("continuation slot %d extends no run", p)
			}
		} else {
			// A run start claims the next occupied quotient: its own slot
			// when unshifted, one below it when shifted, or, in the
			// stretch after the last slot, one above it.
			next, ok := nextOne(occ, q+1, slots)
			if !ok || (next == p) == shifted || shifted && (next < p) == wrapped || !shifted && wrapped {
				err = fmt.Errorf("run at slot %d does not claim the next occupied quotient", p)
			}
			q = next
			runs++
		}
		prev, first = p, false
		bp := p * width
		v := pw[bp>>6]>>(bp&63) | pw[bp>>6+1]<<(64-bp&63)
		dst[n] = entry{q, v & low}
	}
	if err != nil {
		n-- // the entry that failed the check
		c.err, done = err, true
	}
	c.wi, c.full, c.q, c.prev, c.runs = wi, full, q, prev, runs
	c.hi, c.wrapped, c.n = hi, wrapped, c.n+n
	if done && !c.done && c.err == nil {
		c.finish()
	}
	c.done = done
	return n
}

// finish checks, once the read is over, that it met every entry and
// every occupied quotient.
func (c *cursor) finish() {
	switch occ := c.t.occupied.OnesCount(); {
	case c.n != c.t.used:
		c.err = fmt.Errorf("used=%d but %d slots are full", c.t.used, c.n)
	case c.runs != occ:
		c.err = fmt.Errorf("%d occupied quotients but %d runs", occ, c.runs)
	}
}

// fullBits returns the full slots of metadata word wi that lie in
// [lo, hi).
func (t *table) fullBits(wi, lo, hi uint64) uint64 {
	z := t.occupied.Words()[wi] | t.continuation.Words()[wi] | t.shifted.Words()[wi]
	if b := wi << 6; lo > b {
		z &= ^uint64(0) << (lo - b)
	}
	if e := wi<<6 + 64; hi < e {
		z &= ^uint64(0) >> (e - hi)
	}
	return z
}

// nextOne returns the first set bit of words at or after from, if one
// lies below limit.
func nextOne(words []uint64, from, limit uint64) (uint64, bool) {
	if from >= limit {
		return 0, false
	}
	wi := from >> 6
	z := words[wi] & (^uint64(0) << (from & 63))
	for z == 0 {
		if wi++; wi >= uint64(len(words)) {
			return 0, false
		}
		z = words[wi]
	}
	pos := wi<<6 + uint64(bits.TrailingZeros64(z))
	return pos, pos < limit
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
