package quotient

import (
	"errors"
	"testing"

	"beyondbloom/internal/core"
)

// FuzzFilterChurn is the table model fuzz: one script of (op, arg) byte
// pairs drives the three variants that share the table against exact
// models. op%8 picks the operation; for the filter's Insert, op's top
// bit turns auto-expansion on. Small geometries make collisions,
// shifting, wraparound and expansion routine.
//
//	0 Filter.Insert(arg)  1 Filter.Delete(a present key)  2 Filter.Contains(arg)
//	3 Filter.Merge(a one-key filter holding arg)
//	4 Maplet.Put(arg, op>>3&7)  5 Maplet.Delete(a present pair)
//	6 Counting.Add(arg, op>>3&7+1)  7 Counting.Remove(arg, op>>3&7+1)
func FuzzFilterChurn(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, script []byte) {
		qf := New(7, 6)
		fm := map[uint64]int{} // filter model: copies per key
		var present []uint64   // one entry per copy
		mp := NewMaplet(6, 4, 3)
		mm := map[uint64][]uint64{} // maplet model: values per key, repeats kept
		var pairs [][2]uint64
		cq := NewCounting(6, 4)
		cm := map[uint64]uint64{}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], uint64(script[i+1])
			small := uint64(op >> 3 & 7)
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
				if err := mp.Delete(k, v); err != nil {
					t.Fatalf("maplet delete of present (%d, %d): %v", k, v, err)
				}
				pairs = append(pairs[:j], pairs[j+1:]...)
				vs := mm[k]
				for x := range vs {
					if vs[x] == v {
						mm[k] = append(vs[:x], vs[x+1:]...)
						break
					}
				}
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
		for name, check := range map[string]func() error{
			"filter": qf.CheckInvariants, "maplet": mp.CheckInvariants, "counting": cq.CheckInvariants,
		} {
			if err := check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
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
