package cuckoo

import (
	"errors"
	"slices"
	"testing"

	"beyondbloom/internal/core"
)

// FuzzCuckooChurn is the table model fuzz: one script of (op, arg) byte
// pairs drives the four structures built on the table against exact
// models. The first byte picks 2, 4 or 8 buckets, so walks fail and
// stashes fill routinely; then op%8 picks the operation, and op's top
// bit turns an insert into a delete of a present key.
//
//	0 Filter.Insert(arg)  1 Filter.Delete(a present key)  2 Filter.Contains(arg)
//	3 Maplet.Put(arg, op>>3&7)  (top bit: Maplet.Delete(a present pair))
//	4 Maplet.Get(arg)
//	5 Adaptive.Insert(arg)  (top bit: Adaptive.Delete(a present key))
//	6 Adaptive.Contains(arg), adapting if arg is absent and reported present
//	7 Chained.Insert(arg)  (top bit: Chained.Delete(a present key))
func FuzzCuckooChurn(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		n := 6 << (script[0] % 3) // 2, 4 or 8 buckets
		cf, af, ch := New(n, 5), NewAdaptive(n, 5), NewChained(8, 5)
		mp := NewMaplet(n, 5, 3)
		var fm, am, cm []uint64 // models: one entry per stored copy
		var pm [][2]uint64      // maplet model: stored (key, value) pairs
		// insert runs one insert under the overflow rule: nil stores a
		// copy in the model, ErrFull leaves Len alone.
		insert := func(name string, model *[]uint64, ins func() error, length func() int, k uint64) {
			before := length()
			switch err := ins(); {
			case err == nil:
				*model = append(*model, k)
			case errors.Is(err, core.ErrFull):
				if length() != before {
					t.Fatalf("%s: refused insert of %d moved Len %d -> %d", name, k, before, length())
				}
			default:
				t.Fatalf("%s insert %d: %v", name, k, err)
			}
		}
		// remove deletes a present copy, picked by arg, from the model
		// and the structure.
		remove := func(name string, model *[]uint64, del func(uint64) error, arg uint64) {
			if len(*model) == 0 {
				return
			}
			j := int(arg) % len(*model)
			if err := del((*model)[j]); err != nil {
				t.Fatalf("%s delete of present key %d: %v", name, (*model)[j], err)
			}
			*model = slices.Delete(*model, j, j+1)
		}
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i], uint64(script[i+1])
			del := op&0x80 != 0
			switch v := uint64(op >> 3 & 7); {
			case op%8 == 0:
				insert("filter", &fm, func() error { return cf.Insert(arg) }, cf.Len, arg)
			case op%8 == 1:
				remove("filter", &fm, cf.Delete, arg)
			case op%8 == 2:
				if slices.Contains(fm, arg) && !cf.Contains(arg) {
					t.Fatalf("filter false negative for %d", arg)
				}
			case op%8 == 3 && del:
				if len(pm) > 0 {
					j := int(arg) % len(pm)
					if err := mp.Delete(pm[j][0], pm[j][1]); err != nil {
						t.Fatalf("maplet delete of present %v: %v", pm[j], err)
					}
					pm = slices.Delete(pm, j, j+1)
				}
			case op%8 == 3:
				before := mp.Len()
				if err := mp.Put(arg, v); err == nil {
					pm = append(pm, [2]uint64{arg, v})
				} else if !errors.Is(err, core.ErrFull) || mp.Len() != before {
					t.Fatalf("maplet put %d: %v, Len %d -> %d", arg, err, before, mp.Len())
				}
			case op%8 == 4:
				checkMapletGet(t, mp, pm, arg)
			case op%8 == 5 && del:
				remove("adaptive", &am, af.Delete, arg)
			case op%8 == 5:
				insert("adaptive", &am, func() error { return af.Insert(arg) }, af.Len, arg)
			case op%8 == 6:
				if !af.Contains(arg) {
					if slices.Contains(am, arg) {
						t.Fatalf("adaptive false negative for %d", arg)
					}
				} else if !slices.Contains(am, arg) {
					af.Adapt(arg)
				}
			case del:
				remove("chained", &cm, ch.Delete, arg)
			default:
				insert("chained", &cm, func() error { return ch.Insert(arg) }, ch.Len, arg)
			}
		}
		for _, c := range []struct {
			name   string
			model  []uint64
			length int
			has    func(uint64) bool
		}{
			{"filter", fm, cf.Len(), cf.Contains},
			{"adaptive", am, af.Len(), af.Contains},
			{"chained", cm, ch.Len(), ch.Contains},
		} {
			if c.length != len(c.model) {
				t.Fatalf("%s Len = %d, model holds %d copies", c.name, c.length, len(c.model))
			}
			for _, k := range c.model {
				if !c.has(k) {
					t.Fatalf("%s false negative for %d at end", c.name, k)
				}
			}
		}
		for _, p := range pm {
			checkMapletGet(t, mp, pm, p[0])
		}
		if mp.Len() != len(pm) {
			t.Fatalf("maplet Len = %d, model holds %d pairs", mp.Len(), len(pm))
		}
		for name, tab := range map[string]*table{"filter": &cf.table, "maplet": &mp.table, "adaptive": &af.table} {
			if err := checkTable(tab); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if _, err := adaptiveEntries(af); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, l := range ch.links {
			sum += l.Len()
		}
		if sum != ch.Len() {
			t.Fatalf("chained links hold %d entries, Len %d", sum, ch.Len())
		}
	})
}

// checkMapletGet asserts that Get(k) holds every value the model stored
// under k, each as often as stored.
func checkMapletGet(t *testing.T, mp *Maplet, pm [][2]uint64, k uint64) {
	t.Helper()
	got := map[uint64]int{}
	for _, v := range mp.Get(k) {
		got[v]++
	}
	for _, p := range pm {
		if p[0] != k {
			continue
		}
		if got[p[1]]--; got[p[1]] < 0 {
			t.Fatalf("maplet Get(%d) = %v misses a stored value %d", k, mp.Get(k), p[1])
		}
	}
}
