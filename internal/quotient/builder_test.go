package quotient

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
)

// walkEach is the reference read: it calls fn with every stored payload
// and its quotient, in ascending (quotient, run position) order, as the
// validating walk meets them.
func walkEach(t *table, fn func(fq, v uint64) error) error {
	return t.walk(func(fq, s, n uint64) error {
		for i := uint64(0); i < n; i++ {
			if err := fn(fq, t.payload.Get(int((s+i)&t.mask))); err != nil {
				return err
			}
		}
		return nil
	})
}

// insertDoubled is the rebuild the ascending builder replaced: every
// entry, read by the validating walk, inserted into an empty table of
// twice the slots. It is the reference doubled must match.
func insertDoubled(t *table) (*table, error) {
	nt := newTable(t.q+1, t.width-1)
	err := walkEach(t, func(fq, v uint64) error {
		w := fq<<t.width | v
		return nt.insert(w>>nt.width, w&hashutil.Mask(nt.width))
	})
	return nt, err
}

// insertMerged is the insert-based rebuild Merge used: x's entries,
// then y's, each inserted into an empty table of x's geometry.
func insertMerged(x, y *table) (*table, error) {
	nt := newTable(x.q, x.width)
	for _, src := range [...]*table{x, y} {
		if err := walkEach(src, nt.insert); err != nil {
			return nil, err
		}
	}
	return nt, nil
}

// slotShiftRight is the per-slot shiftRight the word-level one replaced.
func slotShiftRight(t *table, x uint64) {
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

// walkLocate is the bit-walk locate: findRun for an occupied quotient,
// else the end of the run of the nearest occupied quotient below.
func walkLocate(t *table, fq uint64) (uint64, uint64) {
	if s, n, ok := t.findRun(fq); ok {
		return s, n
	}
	if !t.shifted.Bit(int(fq)) {
		return fq, 0
	}
	q := (fq - 1) & t.mask
	for !t.occupied.Bit(int(q)) {
		q = (q - 1) & t.mask
	}
	s, n, _ := t.findRun(q)
	return (s + n) & t.mask, 0
}

// cloneTable returns a deep copy of t.
func cloneTable(t *table) *table {
	c := newTable(t.q, t.width)
	copy(c.occupied.Words(), t.occupied.Words())
	copy(c.continuation.Words(), t.continuation.Words())
	copy(c.shifted.Words(), t.shifted.Words())
	copy(c.payload.RawWords(), t.payload.RawWords())
	c.used = t.used
	return c
}

// sameTable reports the first difference between two tables' metadata
// words, payload words and used counts.
func sameTable(got, want *table) error {
	if got.q != want.q || got.width != want.width || got.used != want.used {
		return fmt.Errorf("geometry/used (%d,%d,%d), want (%d,%d,%d)",
			got.q, got.width, got.used, want.q, want.width, want.used)
	}
	for _, v := range []struct {
		name      string
		got, want []uint64
	}{
		{"occupied", got.occupied.Words(), want.occupied.Words()},
		{"continuation", got.continuation.Words(), want.continuation.Words()},
		{"shifted", got.shifted.Words(), want.shifted.Words()},
		{"payload", got.payload.RawWords(), want.payload.RawWords()},
	} {
		for w := range v.got {
			if v.got[w] != v.want[w] {
				return fmt.Errorf("%s word %d = %#x, want %#x", v.name, w, v.got[w], v.want[w])
			}
		}
	}
	return nil
}

// randomTable fills a table of 2^q slots with n random entries (fewer
// if it fills up). With top set, a third of the quotients crowd the top
// of the table, so clusters wrap past slot 0. With deletes, a quarter
// of the entries are then removed, which leaves stale payload bits in
// freed slots and holes in clusters.
func randomTable(rng *rand.Rand, q, width uint, n int, top, deletes bool) *table {
	t := newTable(q, width)
	type entry struct{ fq, v uint64 }
	var in []entry
	for i := 0; i < n; i++ {
		fq := rng.Uint64() & t.mask
		if top && i%3 == 0 {
			fq = (t.slots - 1 - uint64(rng.Intn(4))) & t.mask
		}
		v := rng.Uint64() & hashutil.Mask(width)
		if t.insert(fq, v) != nil {
			break
		}
		in = append(in, entry{fq, v})
	}
	if deletes {
		for _, i := range rng.Perm(len(in))[:len(in)/4] {
			if err := t.remove(in[i].fq, in[i].v); err != nil {
				panic(err)
			}
		}
	}
	return t
}

// TestTableBuilderMatchesInsert checks the one-pass rebuilds against
// the insert-based ones they replaced, word for word: doubled against
// insertDoubled and merged against insertMerged, on random tables from
// nearly empty to the last free slot, with wrapping clusters and after
// deletes, at q ∈ {3, 5, 6, 8, 12}. Every result must also pass the
// full invariant check.
func TestTableBuilderMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, q := range []uint{3, 5, 6, 8, 12} {
		slots := 1 << q
		for _, load := range []float64{0.1, 0.5, 0.85, 0.95, 1} {
			for trial := 0; trial < 12; trial++ {
				n := int(load * float64(slots))
				top, deletes := trial%2 == 1, trial%3 == 2
				width := uint(2 + rng.Intn(20))
				x := randomTable(rng, q, width, n, top, deletes)
				name := fmt.Sprintf("q=%d load=%v trial=%d", q, load, trial)

				got, err := x.doubled()
				if err != nil {
					t.Fatalf("%s: doubled: %v", name, err)
				}
				want, err := insertDoubled(x)
				if err != nil {
					t.Fatalf("%s: insertDoubled: %v", name, err)
				}
				if err := sameTable(got, want); err != nil {
					t.Fatalf("%s: doubled differs from the insert rebuild: %v", name, err)
				}
				if err := got.checkInvariants(); err != nil {
					t.Fatalf("%s: doubled: %v", name, err)
				}

				y := randomTable(rng, q, width, rng.Intn(n/2+1), !top, !deletes)
				got, err = merged(x, y)
				want, werr := insertMerged(x, y)
				if werr != nil {
					if !errors.Is(werr, core.ErrFull) || !errors.Is(err, core.ErrFull) {
						t.Fatalf("%s: merged error %v, insert rebuild %v", name, err, werr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: merged: %v", name, err)
				}
				if err := sameTable(got, want); err != nil {
					t.Fatalf("%s: merged differs from the insert rebuild: %v", name, err)
				}
				if err := got.checkInvariants(); err != nil {
					t.Fatalf("%s: merged: %v", name, err)
				}
			}
		}
	}
}

// TestShiftRightMatchesSlots checks the word-level shiftRight against
// the per-slot one on every slot of random tables, wrapping clusters
// included, and the word-level locate against the bit walk for every
// quotient.
func TestShiftRightMatchesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, q := range []uint{3, 5, 6, 7, 9} {
		for _, width := range []uint{1, 7, 13, 33, 58} {
			x := randomTable(rng, q, width, int(0.9*float64(uint64(1)<<q)), true, q%2 == 1)
			for fq := uint64(0); fq < x.slots; fq++ {
				s1, n1 := x.locate(fq)
				s2, n2 := walkLocate(x, fq)
				if s1 != s2 || n1 != n2 {
					t.Fatalf("q=%d width=%d: locate(%d) = (%d,%d), bit walk (%d,%d)", q, width, fq, s1, n1, s2, n2)
				}
			}
			for p := uint64(0); p < x.slots; p++ {
				got, want := cloneTable(x), cloneTable(x)
				got.shiftRight(p)
				slotShiftRight(want, p)
				if err := sameTable(got, want); err != nil {
					t.Fatalf("q=%d width=%d: shiftRight(%d): %v", q, width, p, err)
				}
			}
		}
	}
}

// TestExpandRejectsInconsistentTable corrupts a consistent table in
// ways that lose or misplace entries; each must fail the invariant
// check, and Expand (doubled) must fail on it too.
func TestExpandRejectsInconsistentTable(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	base := randomTable(rng, 8, 12, 200, true, false)
	firstWhere := func(t *table, pred func(p uint64) bool) int {
		for p := uint64(0); p < t.slots; p++ {
			if pred(p) {
				return int(p)
			}
		}
		panic("no such slot")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *table)
	}{
		{"occupied quotient cleared", func(t *table) {
			t.occupied.Clear(firstWhere(t, func(p uint64) bool { return t.occupied.Bit(int(p)) }))
		}},
		{"occupied bit on an empty slot", func(t *table) {
			t.occupied.Set(firstWhere(t, t.isEmptySlot))
		}},
		{"continuation on an empty slot", func(t *table) {
			p := firstWhere(t, t.isEmptySlot)
			t.continuation.Set(p)
			t.shifted.Set(p)
		}},
		{"run start made a continuation", func(t *table) {
			t.continuation.Set(firstWhere(t, func(p uint64) bool {
				return t.shifted.Bit(int(p)) && !t.continuation.Bit(int(p))
			}))
		}},
		{"shifted bit on a home run", func(t *table) {
			t.shifted.Set(firstWhere(t, func(p uint64) bool {
				return !t.isEmptySlot(p) && !t.shifted.Bit(int(p))
			}))
		}},
		{"used off by one", func(t *table) { t.used++ }},
		{"no empty slot", func(t *table) {
			for p := uint64(0); p < t.slots; p++ {
				t.shifted.Set(int(p))
			}
		}},
	} {
		x := cloneTable(base)
		tc.corrupt(x)
		if x.checkInvariants() == nil {
			t.Fatalf("%s: the corrupt table passes checkInvariants", tc.name)
		}
		if _, err := x.doubled(); err == nil {
			t.Errorf("%s: doubled accepted an inconsistent table", tc.name)
		}
	}
}

// mapletAtLoad returns a maplet of 2^q slots with the lsm store's slot
// shape (16-bit remainders, 8-bit values) filled to load with keys
// 0, 1, 2, … (value = key's low byte).
func mapletAtLoad(q uint, load float64) *Maplet {
	m := NewMaplet(q, 16, 8)
	for k := uint64(0); m.LoadFactor() < load; k++ {
		if err := m.Put(k, k&0xFF); err != nil {
			panic(err)
		}
	}
	return m
}

// BenchmarkMapletExpand times one doubling of a 2^15-slot maplet at the
// store's expansion load (0.85), per entry copied.
func BenchmarkMapletExpand(b *testing.B) {
	m := mapletAtLoad(15, 0.85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := *m // Expand replaces c's table and leaves m's as it was
		if err := c.Expand(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.Len()), "ns/entry")
}

// BenchmarkMapletUpdate times Update, the store's re-pointing of a key
// to a new run id, on a 2^15-slot maplet at load 0.6: each op moves one
// present key's value to the other of two values and back.
func BenchmarkMapletUpdate(b *testing.B) {
	m := mapletAtLoad(15, 0.6)
	n := uint64(m.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) * 0x9E3779B97F4A7C15 % n
		v := k & 0xFF
		if m.Update(k, v, v^1) != nil || m.Update(k, v^1, v) != nil {
			b.Fatal("update failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/update")
}
