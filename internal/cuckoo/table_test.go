package cuckoo

import (
	"errors"
	"fmt"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/workload"
)

// checkTable verifies the table's bookkeeping: Len counts the occupied
// slots plus the stash, and the stash stays within its capacity.
func checkTable(t *table) error {
	used := len(t.stash)
	for pos := 0; pos < t.slotCount(); pos++ {
		if t.slots.Get(pos) != 0 {
			used++
		}
	}
	if used != t.n {
		return fmt.Errorf("Len %d, but %d slots and stash entries are occupied", t.n, used)
	}
	if len(t.stash) > t.stashCap {
		return fmt.Errorf("stash holds %d entries, capacity %d", len(t.stash), t.stashCap)
	}
	return nil
}

// adaptiveEntries maps each stored key of a to its selector, checking
// that every entry sits in one of its key's buckets and holds its key's
// fingerprint under that selector.
func adaptiveEntries(a *Adaptive) (map[uint64]uint64, error) {
	sels := map[uint64]uint64{}
	check := func(b uint64, e entry) error {
		i1, i2 := a.buckets(e.key)
		if b != i1 && b != i2 {
			return fmt.Errorf("key %d sits in bucket %d, not in its buckets %d, %d", e.key, b, i1, i2)
		}
		if sel := e.word & 3; e.word>>2 != a.fpOf(e.key, sel) {
			return fmt.Errorf("key %d: word %#x is not its fingerprint under selector %d", e.key, e.word, sel)
		}
		sels[e.key] = e.word & 3
		return nil
	}
	for pos := 0; pos < a.slotCount(); pos++ {
		if e := a.at(pos); e.word != 0 {
			if err := check(uint64(pos/BucketSize), e); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range a.stash {
		if err := check(p.bucket, p.entry); err != nil {
			return nil, err
		}
	}
	return sels, nil
}

// TestOverflowRule fills each structure on the table far past full. An
// insert that returns nil must leave its key findable (for the maplet,
// with its value); one that returns ErrFull must change nothing: not
// Len, not SizeBits, not the answer to any probe.
func TestOverflowRule(t *testing.T) {
	type subject struct {
		insert func(i int, k uint64) error
		found  func(i int, k uint64) bool // key i (k) is answered as stored
		tab    *table
	}
	for name, mk := range map[string]func() subject{
		"filter": func() subject {
			f := New(64, 8)
			return subject{func(_ int, k uint64) error { return f.Insert(k) },
				func(_ int, k uint64) bool { return f.Contains(k) }, &f.table}
		},
		"maplet": func() subject {
			m := NewMaplet(64, 8, 8)
			return subject{func(i int, k uint64) error { return m.Put(k, uint64(i%256)) },
				func(i int, k uint64) bool {
					for _, v := range m.Get(k) {
						if v == uint64(i%256) {
							return true
						}
					}
					return false
				}, &m.table}
		},
		"adaptive": func() subject {
			a := NewAdaptive(64, 8)
			return subject{func(_ int, k uint64) error { return a.Insert(k) },
				func(_ int, k uint64) bool { return a.Contains(k) }, &a.table}
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := mk()
			keys := workload.Keys(400, 41)
			answers := func() []bool {
				out := make([]bool, len(keys))
				for i, k := range keys {
					out[i] = s.found(i, k)
				}
				return out
			}
			var stored []int
			refused := 0
			for i, k := range keys {
				n, size, before := s.tab.Len(), s.tab.SizeBits(), answers()
				err := s.insert(i, k)
				switch {
				case err == nil:
					stored = append(stored, i)
				case errors.Is(err, core.ErrFull):
					refused++
					if s.tab.Len() != n || s.tab.SizeBits() != size {
						t.Fatalf("refused insert %d moved Len %d -> %d, SizeBits %d -> %d",
							i, n, s.tab.Len(), size, s.tab.SizeBits())
					}
					for j, was := range answers() {
						if was != before[j] {
							t.Fatalf("refused insert %d changed the answer for key %d to %v", i, j, !was)
						}
					}
				default:
					t.Fatalf("insert %d: %v", i, err)
				}
				for _, j := range stored {
					if !s.found(j, keys[j]) {
						t.Fatalf("after insert %d, stored key %d is lost", i, j)
					}
				}
				if err := checkTable(s.tab); err != nil {
					t.Fatalf("after insert %d: %v", i, err)
				}
			}
			if refused == 0 || s.tab.Len() != len(stored) {
				t.Fatalf("%d refusals, Len %d, %d inserts acknowledged", refused, s.tab.Len(), len(stored))
			}
		})
	}
}

// TestChainedStoresEachKeyOnce: a key the newest link refuses goes to a
// new link and nowhere else, so the links' Lens sum to Len and deleting
// every key once empties every link.
func TestChainedStoresEachKeyOnce(t *testing.T) {
	c := NewChained(1000, 13)
	keys := workload.Keys(20000, 7)
	for _, k := range keys {
		if err := c.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	for _, l := range c.links {
		sum += l.Len()
	}
	if sum != c.Len() || c.Len() != len(keys) {
		t.Fatalf("links hold %d entries, Len %d, %d keys inserted", sum, c.Len(), len(keys))
	}
	for _, k := range keys {
		if err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range c.links {
		if l.Len() != 0 {
			t.Fatalf("link %d holds %d entries after every key was deleted once", i, l.Len())
		}
	}
}

// TestAdaptiveWalkKeepsSelectors gives every stored entry a nonzero
// selector, then fills the table past full. Relocated entries must keep
// their selectors: a walk that re-fingerprints with selector 0 undoes
// the repairs those selectors record.
func TestAdaptiveWalkKeepsSelectors(t *testing.T) {
	a := NewAdaptive(256, 8)
	keys := workload.Keys(600, 43)
	for _, k := range keys[:150] {
		if err := a.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	home := map[uint64]int{} // stored key -> slot, to count relocations
	for pos := 0; pos < a.slotCount(); pos++ {
		if e := a.at(pos); e.word != 0 {
			sel := 1 + e.key%3
			a.put(pos, entry{word: a.fpOf(e.key, sel)<<2 | sel, key: e.key})
			home[e.key] = pos
		}
	}
	want, err := adaptiveEntries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[150:] {
		if err := a.Insert(k); err != nil && !errors.Is(err, core.ErrFull) {
			t.Fatal(err)
		}
		got, err := adaptiveEntries(a)
		if err != nil {
			t.Fatal(err)
		}
		for k, sel := range want {
			if got[k] != sel {
				t.Fatalf("key %d: selector %d became %d", k, sel, got[k])
			}
		}
	}
	moved := 0
	for k, pos := range home {
		if a.at(pos).key != k {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the fill relocated no entry with a selector; the test proves nothing")
	}
}
