package quotient

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"beyondbloom/internal/core"
)

// FuzzFilterChurn is the table model fuzz: one script of (op, arg) byte
// pairs drives the four variants that share the table against exact
// models. op%8 picks the operation; for the filter's Insert, op's top
// bit turns auto-expansion on, for Contains it selects the maplet's
// Expand instead, and for the maplet's Delete it selects Update. Bits
// 0x40 and 0x80 of ops 0–3 hand them to the InfiniFilter. Small
// geometries make collisions, shifting, wraparound and expansion
// routine; explicit InfiniFilter doublings spend fingerprints down to
// void entries. Every maplet or InfiniFilter doubling must equal, word
// for word, the table the insert-based rebuild makes from the same
// entries, and the models must keep answering across it.
//
//	0 Filter.Insert(arg)  1 Filter.Delete(a present key)  2 Filter.Contains(arg)
//	  (0x40: Infini.Insert(arg))
//	  (0x80: Infini.Delete(a present key))
//	  (0x80: Maplet.Expand; else 0x40: Infini.Contains(arg))
//	3 Filter.Merge(a one-key filter holding arg)
//	  (0x80: Infini doubling up to q=18; else 0x40: Infini save and load, 4 at most)
//	4 Maplet.Put(arg, op>>3&7)  5 Maplet.Delete(a present pair)
//	  (top bit: Maplet.Update(a present pair, op>>3&7), and of an absent one)
//	6 Counting.Add(arg, op>>3&7+1)  7 Counting.Remove(arg, op>>3&7+1)
func FuzzFilterChurn(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{0x04, 0xF1, 0x0c, 0xF2, 0x14, 0xF3, 0x04, 0x07, 0x82, 0, 0x24, 0xF1, 0x85, 0x01, 0x82, 0, 0x05, 0x02, 0x82, 0, 0x82, 0})
	// InfiniFilter: four keys, 17 doublings (voids, then copied voids),
	// a save and load, lookups, deletes and fresh inserts.
	voids := []byte{0x40, 1, 0x40, 2, 0x40, 3, 0x40, 9}
	for range 17 {
		voids = append(voids, 0x83, 0)
	}
	f.Add(append(voids, 0x43, 0, 0x42, 1, 0x81, 0, 0x81, 1, 0x42, 2, 0x40, 5, 0x40, 2, 0x81, 3))
	f.Fuzz(func(t *testing.T, script []byte) {
		qf := New(7, 6)
		fm := map[uint64]int{} // filter model: copies per key
		var present []uint64   // one entry per copy
		mp := NewMaplet(6, 4, 3)
		mm := map[uint64][]uint64{} // maplet model: values per key, repeats kept
		var pairs [][2]uint64
		cq := NewCounting(6, 4)
		cm := map[uint64]uint64{}
		inf, err := NewInfini(1)
		if err != nil {
			t.Fatal(err)
		}
		im := map[uint64]int{} // InfiniFilter model: copies per key
		var ipresent []uint64
		reloads := 0
		// infiniStep runs op on the InfiniFilter if its bits select it.
		infiniStep := func(op byte, arg uint64) bool {
			switch {
			case op%8 == 0 && op&0x40 != 0:
				if float64(inf.t.used+1) > infiniMaxLoad*float64(inf.t.slots) {
					checkInfiniExpand(t, inf) // the doubling Insert would make
				}
				if err := inf.Insert(arg); err != nil {
					t.Fatalf("infini insert of %d: %v", arg, err)
				}
				im[arg]++
				ipresent = append(ipresent, arg)
			case op%8 == 1 && op&0x80 != 0:
				if len(ipresent) == 0 {
					break
				}
				j := int(arg) % len(ipresent)
				k := ipresent[j]
				if err := inf.Delete(k); err != nil {
					t.Fatalf("infini delete of present key %d: %v", k, err)
				}
				im[k]--
				ipresent = append(ipresent[:j], ipresent[j+1:]...)
			case op%8 == 2 && op&0xC0 == 0x40:
				if im[arg] > 0 && !inf.Contains(arg) {
					t.Fatalf("infini false negative for %d", arg)
				}
			case op%8 == 3 && op&0x80 != 0:
				if inf.t.q < 18 { // 17 doublings from q=1 make voids and copy them
					checkInfiniExpand(t, inf)
				}
			case op%8 == 3 && op&0x40 != 0:
				if reloads < 4 { // a load of a 2^18-slot table takes milliseconds
					inf = reloadInfini(t, inf)
					reloads++
				}
			default:
				return false
			}
			return true
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], uint64(script[i+1])
			small := uint64(op >> 3 & 7)
			if infiniStep(op, arg) {
				continue
			}
			switch op % 8 {
			case 0:
				qf.SetAutoExpand(op&0x80 != 0)
				if qf.Insert(arg) == nil {
					fm[arg]++
					present = append(present, arg)
				}
			case 1:
				if len(present) == 0 {
					continue
				}
				j := int(arg) % len(present)
				k := present[j]
				if err := qf.Delete(k); err != nil {
					t.Fatalf("filter delete of present key %d: %v", k, err)
				}
				fm[k]--
				present = append(present[:j], present[j+1:]...)
			case 2:
				if op&0x80 != 0 {
					checkMapletExpand(t, mp, mm)
					continue
				}
				if fm[arg] > 0 && !qf.Contains(arg) {
					t.Fatalf("filter false negative for %d", arg)
				}
			case 3:
				if qf.Saturated() || qf.Expansions() > 0 {
					continue // Merge needs equal geometry
				}
				other := New(7, 6)
				if other.Insert(arg) == nil && qf.Merge(other) == nil {
					fm[arg]++
					present = append(present, arg)
				}
			case 4:
				if mp.Put(arg, small) == nil {
					mm[arg] = append(mm[arg], small)
					pairs = append(pairs, [2]uint64{arg, small})
				}
			case 5:
				if len(pairs) == 0 {
					continue
				}
				j := int(arg) % len(pairs)
				k, v := pairs[j][0], pairs[j][1]
				vs := mm[k]
				x := slices.Index(vs, v)
				if op&0x80 != 0 {
					checkMapletUpdate(t, mp, k, v, small)
					pairs[j][1], vs[x] = small, small
					continue
				}
				if err := mp.Delete(k, v); err != nil {
					t.Fatalf("maplet delete of present (%d, %d): %v", k, v, err)
				}
				pairs = append(pairs[:j], pairs[j+1:]...)
				mm[k] = append(vs[:x], vs[x+1:]...)
			case 6:
				if cq.Add(arg, small+1) == nil {
					cm[arg] += small + 1
				}
			case 7:
				if cm[arg] == 0 {
					continue
				}
				d := min(small+1, cm[arg])
				if err := cq.Remove(arg, d); errors.Is(err, core.ErrFull) {
					continue // a re-encoded counter can need one more slot
				} else if err != nil {
					t.Fatalf("counting remove of present key %d: %v", arg, err)
				}
				cm[arg] -= d
			}
		}
		for k, c := range fm {
			if c > 0 && !qf.Contains(k) {
				t.Fatalf("filter false negative for %d at end", k)
			}
		}
		if !qf.Saturated() && qf.Len() != len(present) {
			t.Fatalf("filter Len = %d, model holds %d copies", qf.Len(), len(present))
		}
		for k, want := range mm {
			got := map[uint64]int{}
			for _, v := range mp.Get(k) {
				got[v]++
			}
			for _, v := range want {
				if got[v]--; got[v] < 0 {
					t.Fatalf("maplet Get(%d) = %v, model %v", k, mp.Get(k), want)
				}
			}
		}
		if mp.Len() != len(pairs) {
			t.Fatalf("maplet Len = %d, model holds %d pairs", mp.Len(), len(pairs))
		}
		var total uint64
		for k, want := range cm {
			if got := cq.Count(k); got < want {
				t.Fatalf("counting Count(%d) = %d, model %d", k, got, want)
			}
			total += want
		}
		if cq.Total() != total {
			t.Fatalf("counting Total = %d, model %d", cq.Total(), total)
		}
		for k, c := range im {
			if c > 0 && !inf.Contains(k) {
				t.Fatalf("infini false negative for %d at end", k)
			}
		}
		checkInfiniCounts(t, inf)
		for name, check := range map[string]func() error{
			"filter": qf.CheckInvariants, "maplet": mp.CheckInvariants, "counting": cq.CheckInvariants,
			"infini": inf.CheckInvariants,
		} {
			if err := check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// checkMapletExpand doubles mp unless its remainder bits are spent. The
// doubled table must equal the insert-based rebuild of the same
// entries word for word and pass the invariant check, and every key of
// the value model must still get all its values back.
func checkMapletExpand(t *testing.T, mp *Maplet, model map[uint64][]uint64) {
	t.Helper()
	want, err := insertDoubled(mp.t)
	if err != nil {
		t.Fatalf("insert rebuild of the maplet: %v", err)
	}
	if err := mp.Expand(); errors.Is(err, core.ErrFull) {
		return // no remainder bit left to give
	} else if err != nil {
		t.Fatalf("maplet expand: %v", err)
	}
	if err := sameTable(mp.t, want); err != nil {
		t.Fatalf("doubled maplet differs from the insert rebuild: %v", err)
	}
	if err := mp.CheckInvariants(); err != nil {
		t.Fatalf("after maplet expand: %v", err)
	}
	for k, vs := range model {
		got := mp.Get(k)
		for _, v := range vs {
			if !slices.Contains(got, v) {
				t.Fatalf("after expand, maplet Get(%d) = %v lacks %d (model %v)", k, got, v, vs)
			}
		}
	}
}

// checkInfiniExpand doubles f. The doubled table must equal, word for
// word, the table inserting the same entries builds: each code shifted
// right into the half its lowest bit picks, a void into both. Len and
// Voids must then agree with a recount of the codes.
func checkInfiniExpand(t *testing.T, f *Infini) {
	t.Helper()
	want := newTable(f.t.q+1, f.t.width)
	err := walkEach(f.t, func(fq, v uint64) error {
		for half := uint64(0); half < 2; half++ {
			if v == 1 || v&1 == half {
				if err := want.insert(fq|half<<f.t.q, max(v>>1, 1)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("insert rebuild of the infini table: %v", err)
	}
	if err := f.expand(); err != nil {
		t.Fatalf("infini expand: %v", err)
	}
	if err := sameTable(f.t, want); err != nil {
		t.Fatalf("doubled infini table differs from the insert rebuild: %v", err)
	}
	checkInfiniCounts(t, f)
}

// checkInfiniCounts recounts f's codes: Len must be the number of
// entries and Voids the number of codes of 1, and no code may be 0.
func checkInfiniCounts(t *testing.T, f *Infini) {
	t.Helper()
	n, voids := 0, 0
	err := walkEach(f.t, func(fq, v uint64) error {
		if v == 0 {
			return fmt.Errorf("code 0 in run %d", fq)
		}
		n++
		if v == 1 {
			voids++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("infini recount: %v", err)
	}
	if f.Len() != n || f.Voids() != voids {
		t.Fatalf("infini Len %d, Voids %d; the table holds %d entries, %d voids", f.Len(), f.Voids(), n, voids)
	}
}

// reloadInfini saves f and loads the image into a fresh filter, which
// must re-encode to the same bytes.
func reloadInfini(t *testing.T, f *Infini) *Infini {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatalf("infini save: %v", err)
	}
	img := bytes.Clone(buf.Bytes())
	g := new(Infini)
	if _, err := g.ReadFrom(&buf); err != nil {
		t.Fatalf("infini load: %v", err)
	}
	buf.Reset()
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("infini re-save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), img) {
		t.Fatalf("reloaded infini re-encodes to %d bytes, saved %d differ", buf.Len(), len(img))
	}
	return g
}

// checkMapletUpdate rewrites the present pair (k, v) to (k, w) and
// asserts it is an in-place edit: Len and LoadFactor are unchanged and
// the table stays consistent. It then updates a value k's fingerprint
// does not hold, which must fail with ErrNotFound and change nothing.
func checkMapletUpdate(t *testing.T, mp *Maplet, k, v, w uint64) {
	t.Helper()
	n, lf := mp.Len(), mp.LoadFactor()
	if err := mp.Update(k, v, w); err != nil {
		t.Fatalf("maplet update of present (%d, %d): %v", k, v, err)
	}
	if mp.Len() != n || mp.LoadFactor() != lf {
		t.Fatalf("maplet update moved Len %d -> %d, load %v -> %v", n, mp.Len(), lf, mp.LoadFactor())
	}
	if err := mp.CheckInvariants(); err != nil {
		t.Fatalf("after update of (%d, %d): %v", k, v, err)
	}
	held := mp.Get(k)
	for absent := uint64(0); absent < 8; absent++ {
		if slices.Contains(held, absent) {
			continue
		}
		before := mp.Entries()
		if err := mp.Update(k, absent, w); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("maplet update of absent (%d, %d): %v, want ErrNotFound", k, absent, err)
		}
		if !slices.Equal(before, mp.Entries()) {
			t.Fatalf("failed maplet update of (%d, %d) changed the entries", k, absent)
		}
		return
	}
}

// FuzzCounterCodec round-trips arbitrary (remainder, count) runs through
// the CQF's variable-length counter encoding.
func FuzzCounterCodec(f *testing.F) {
	f.Add([]byte{1, 5, 2, 200, 0, 3})
	f.Add([]byte{15, 255, 14, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := NewCounting(4, 4)
		var pairs []pair
		seen := map[uint64]bool{}
		for i := 0; i+1 < len(raw) && len(pairs) < 8; i += 2 {
			rem := uint64(raw[i] & 15)
			count := uint64(raw[i+1])%300 + 1
			if seen[rem] {
				continue
			}
			seen[rem] = true
			pairs = append(pairs, pair{rem: rem, count: count})
		}
		// Encoding requires ascending remainders.
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && pairs[j].rem < pairs[j-1].rem; j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
		enc := c.encodeCounts(pairs)
		got := c.decodeCounts(enc)
		if len(got) != len(pairs) {
			t.Fatalf("roundtrip %v -> %v", pairs, got)
		}
		for i := range pairs {
			if got[i] != pairs[i] {
				t.Fatalf("roundtrip %v -> %v", pairs, got)
			}
		}
	})
}
