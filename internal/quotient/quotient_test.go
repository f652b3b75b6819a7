package quotient

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

func TestFilterInsertContains(t *testing.T) {
	f := New(12, 8)
	keys := workload.Keys(3000, 1)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 3000 keys in a 2^20 fingerprint space collide ~4 times (birthday);
	// the filter is a multiset, so colliding keys each keep a slot.
	if f.Len() != 3000 || f.t.used != 3000 {
		t.Fatalf("Len = %d, used = %d, want 3000", f.Len(), f.t.used)
	}
}

func TestFilterFPRNearTarget(t *testing.T) {
	f := New(14, 10) // ε ≈ load * 2^-10
	keys := workload.Keys(14000, 2)
	for _, k := range keys {
		f.Insert(k)
	}
	neg := workload.DisjointKeys(200000, 2)
	fpr := metrics.FPR(f, neg)
	expected := f.LoadFactor() / 1024
	if fpr > expected*3 {
		t.Errorf("FPR %g, expected about %g", fpr, expected)
	}
}

func TestFilterDelete(t *testing.T) {
	f := New(10, 10)
	keys := workload.Keys(600, 3)
	for _, k := range keys {
		f.Insert(k)
	}
	for _, k := range keys[:300] {
		if err := f.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if fn := metrics.FalseNegatives(f, keys[300:]); fn != 0 {
		t.Fatalf("%d false negatives among surviving keys", fn)
	}
	still := 0
	for _, k := range keys[:300] {
		if f.Contains(k) {
			still++
		}
	}
	if still > 5 {
		t.Errorf("%d/300 deleted keys still positive (collisions should be rare)", still)
	}
	if err := f.Delete(keys[0]); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("double delete: got %v, want ErrNotFound", err)
	}
}

// TestFilterIdempotentInsert pins what a repeated Insert does in a
// filter that offers Delete: it is not idempotent. The filter keeps one
// copy per Insert and Delete removes one, so two keys sharing a
// fingerprint can each be deleted without taking the other with it.
func TestFilterIdempotentInsert(t *testing.T) {
	f := New(8, 8)
	for i := 0; i < 2; i++ {
		if err := f.Insert(42); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d after two inserts, want 2", f.Len())
	}
	if err := f.Delete(42); err != nil {
		t.Fatal(err)
	}
	if !f.Contains(42) {
		t.Fatal("inserted twice, deleted once: must still be present")
	}
	if err := f.Delete(42); err != nil {
		t.Fatal(err)
	}
	if f.Contains(42) {
		t.Fatal("still present after the second delete")
	}
	if err := f.Delete(42); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("third delete: %v, want ErrNotFound", err)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d at the end, want 0", f.Len())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// newColliding returns New(7, 6) holding keys, after checking that 41
// and 99 share a fingerprint there.
func newColliding(t *testing.T, keys ...uint64) *Filter {
	t.Helper()
	f := New(7, 6)
	fq1, fr1 := f.fingerprint(41)
	fq2, fr2 := f.fingerprint(99)
	if fq1 != fq2 || fr1 != fr2 {
		t.Fatal("keys 41 and 99 no longer collide in New(7, 6)")
	}
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestFilterExpandKeepsCollisions: auto-expansion must carry both copies
// of a shared fingerprint, or deleting one key loses the other.
func TestFilterExpandKeepsCollisions(t *testing.T) {
	f := newColliding(t, 41, 99)
	f.SetAutoExpand(true)
	for k := uint64(1000); f.Expansions() == 0; k++ {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Delete(41); err != nil {
		t.Fatal(err)
	}
	if !f.Contains(99) {
		t.Fatal("99 is a false negative after expansion and Delete(41)")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFilterMergeKeepsCollisions: Merge is the multiset sum.
func TestFilterMergeKeepsCollisions(t *testing.T) {
	a, b := newColliding(t, 41), newColliding(t, 99)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", a.Len())
	}
	if err := a.Delete(41); err != nil {
		t.Fatal(err)
	}
	if !a.Contains(99) {
		t.Fatal("99 is a false negative after Merge and Delete(41)")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterFull(t *testing.T) {
	f := New(6, 8) // 64 slots, capacity ~60
	var err error
	inserted := 0
	for i := 0; i < 200 && err == nil; i++ {
		err = f.Insert(uint64(i) * 7919)
		if err == nil {
			inserted++
		}
	}
	if !errors.Is(err, core.ErrFull) {
		t.Fatalf("expected ErrFull, got %v after %d inserts", err, inserted)
	}
	if inserted < 55 {
		t.Errorf("filled after only %d inserts (capacity accounting broken?)", inserted)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterChurn(t *testing.T) {
	// Random interleaved inserts and deletes, validated against a model.
	f := New(10, 12)
	rng := rand.New(rand.NewSource(99))
	model := map[uint64]bool{}
	var present []uint64
	for op := 0; op < 8000; op++ {
		if rng.Intn(2) == 0 || len(present) == 0 {
			k := rng.Uint64()
			if model[k] {
				continue
			}
			if err := f.Insert(k); err != nil {
				continue // full; fine
			}
			model[k] = true
			present = append(present, k)
		} else {
			i := rng.Intn(len(present))
			k := present[i]
			if err := f.Delete(k); err != nil {
				t.Fatalf("delete of present key %d failed: %v", k, err)
			}
			delete(model, k)
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		}
		if op%1000 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	for k := range model {
		if !f.Contains(k) {
			t.Fatalf("false negative on churn survivor %d", k)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterWraparound(t *testing.T) {
	// Force runs to wrap past the end of the table: tiny table, many
	// keys that quotient near the top.
	f := New(4, 16) // 16 slots
	rng := rand.New(rand.NewSource(5))
	var kept []uint64
	for i := 0; i < 14; i++ {
		k := rng.Uint64()
		if f.Insert(k) == nil {
			kept = append(kept, k)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range kept {
		if !f.Contains(k) {
			t.Fatalf("false negative %d in wraparound table", k)
		}
	}
	for _, k := range kept {
		if err := f.Delete(k); err != nil {
			t.Fatalf("wraparound delete: %v", err)
		}
	}
	if f.t.used != 0 {
		t.Fatalf("table not empty after deleting all: used=%d", f.t.used)
	}
}

func TestFilterExpansion(t *testing.T) {
	f := New(8, 12)
	f.SetAutoExpand(true)
	keys := workload.Keys(4000, 7)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if f.Expansions() < 4 {
		t.Fatalf("expected >=4 expansions, got %d", f.Expansions())
	}
	if f.RemainderBits() != 12-uint(f.Expansions()) {
		t.Fatalf("remainder bits %d after %d expansions", f.RemainderBits(), f.Expansions())
	}
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatalf("%d false negatives after expansion", fn)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterSaturation(t *testing.T) {
	f := New(4, 2) // tiny: saturates after one expansion
	f.SetAutoExpand(true)
	for i := 0; i < 1000; i++ {
		if err := f.Insert(uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if !f.Saturated() {
		t.Fatal("expected saturation")
	}
	// Saturated filter answers true for everything (the tutorial's
	// "returns a positive for every query").
	if !f.Contains(1<<63) || !f.Contains(12345678) {
		t.Fatal("saturated filter must answer true")
	}
}

func TestFilterMerge(t *testing.T) {
	a := New(10, 10)
	b := New(10, 10)
	ka := workload.Keys(300, 11)
	kb := workload.Keys(300, 12)
	for _, k := range ka {
		a.Insert(k)
	}
	for _, k := range kb {
		b.Insert(k)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if fn := metrics.FalseNegatives(a, append(ka, kb...)); fn != 0 {
		t.Fatalf("%d false negatives after merge", fn)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mismatched geometry refuses to merge.
	c := New(9, 10)
	if err := a.Merge(c); err == nil {
		t.Fatal("merge of mismatched filters should fail")
	}
}

func TestCounterCodecRoundTrip(t *testing.T) {
	c := NewCounting(4, 4)
	cases := [][]pair{
		{},
		{{rem: 0, count: 1}},
		{{rem: 0, count: 7}},
		{{rem: 1, count: 1}},
		{{rem: 1, count: 2}},
		{{rem: 1, count: 3}},
		{{rem: 1, count: 100}},
		{{rem: 5, count: 3}},
		{{rem: 5, count: 4}},
		{{rem: 15, count: 1000000}},
		{{rem: 0, count: 3}, {rem: 1, count: 5}, {rem: 7, count: 2}, {rem: 15, count: 9}},
		{{rem: 2, count: 1}, {rem: 3, count: 1}, {rem: 4, count: 1}},
		{{rem: 14, count: 17}, {rem: 15, count: 260}},
	}
	for _, want := range cases {
		enc := c.encodeCounts(want)
		got := c.decodeCounts(enc)
		if len(got) != len(want) {
			t.Fatalf("roundtrip %v -> %v (enc %v)", want, got, enc)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("roundtrip %v -> %v (enc %v)", want, got, enc)
			}
		}
	}
}

func TestCounterCodecExhaustive(t *testing.T) {
	// Exhaustive over all remainders and counts 1..40 for r=3 (base 7):
	// stresses digit remapping, leading-digit forcing, and the unary-0
	// path.
	c := NewCounting(4, 3)
	for rem := uint64(0); rem < 8; rem++ {
		for count := uint64(1); count <= 40; count++ {
			enc := c.encodeCounts([]pair{{rem: rem, count: count}})
			got := c.decodeCounts(enc)
			if len(got) != 1 || got[0].rem != rem || got[0].count != count {
				t.Fatalf("rem=%d count=%d: enc=%v got=%v", rem, count, enc, got)
			}
		}
	}
}

func TestCounterCodecAdjacentPairs(t *testing.T) {
	// Adjacent remainders with counters must not absorb each other.
	c := NewCounting(4, 4)
	for r1 := uint64(0); r1 < 15; r1++ {
		for c1 := uint64(1); c1 <= 12; c1++ {
			for c2 := uint64(1); c2 <= 12; c2++ {
				want := []pair{{rem: r1, count: c1}, {rem: r1 + 1, count: c2}}
				enc := c.encodeCounts(want)
				got := c.decodeCounts(enc)
				if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
					t.Fatalf("%v -> %v (enc %v)", want, got, enc)
				}
			}
		}
	}
}

func TestCountingAddCount(t *testing.T) {
	c := NewCounting(12, 8)
	keys := workload.Keys(1000, 21)
	truth := workload.ZipfMultiset(keys, 100000, 1.2, 23)
	for k, n := range truth {
		if err := c.Add(k, n); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range truth {
		if got := c.Count(k); got < want {
			t.Fatalf("Count(%d)=%d underreports %d", k, got, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Total() < 100000 {
		t.Fatalf("Total=%d", c.Total())
	}
}

func TestCountingSkewUsesFewSlots(t *testing.T) {
	// One key a million times should cost O(log) slots, not a million —
	// the CQF's variable-length counter claim.
	c := NewCounting(8, 8)
	if err := c.Add(7, 1000000); err != nil {
		t.Fatal(err)
	}
	if c.t.used > 12 {
		t.Fatalf("1M count uses %d slots, want O(log)", c.t.used)
	}
	if got := c.Count(7); got != 1000000 {
		t.Fatalf("Count = %d, want exactly 1000000", got)
	}
}

func TestCountingRemove(t *testing.T) {
	c := NewCounting(10, 8)
	keys := workload.Keys(200, 31)
	for i, k := range keys {
		c.Add(k, uint64(i%7+1))
	}
	for i, k := range keys[:100] {
		if err := c.Remove(k, uint64(i%7+1)); err != nil {
			t.Fatal(err)
		}
	}
	zero := 0
	for _, k := range keys[:100] {
		if c.Count(k) == 0 {
			zero++
		}
	}
	if zero < 95 {
		t.Errorf("only %d/100 removed keys at zero", zero)
	}
	for i, k := range keys[100:] {
		want := uint64((i+100)%7 + 1)
		if got := c.Count(k); got < want {
			t.Fatalf("survivor undercounted: %d < %d", got, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(keys[0], 1); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("remove of absent: %v", err)
	}
}

func TestCountingPartialRemove(t *testing.T) {
	c := NewCounting(8, 8)
	c.Add(5, 10)
	c.Remove(5, 4)
	if got := c.Count(5); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	c.Remove(5, 100) // clamp
	if got := c.Count(5); got != 0 {
		t.Fatalf("Count after clamp = %d, want 0", got)
	}
}

func TestCountingPairsIteration(t *testing.T) {
	c := NewCounting(8, 8)
	c.Add(1, 5)
	c.Add(2, 1)
	c.Add(3, 300)
	pairs := c.Pairs()
	if len(pairs) != 3 {
		t.Fatalf("Pairs len %d", len(pairs))
	}
	total := uint64(0)
	for _, p := range pairs {
		total += p.Count
	}
	if total != 306 {
		t.Fatalf("Pairs total %d, want 306", total)
	}
}

func TestCountingQuickModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounting(8, 6)
		model := map[uint64]uint64{}
		for op := 0; op < 300; op++ {
			k := uint64(rng.Intn(60)) // small key space → collisions in runs
			d := uint64(rng.Intn(9) + 1)
			if rng.Intn(3) > 0 {
				if c.Add(k, d) != nil {
					continue
				}
				model[k] += d
			} else if model[k] > 0 {
				if d > model[k] {
					d = model[k]
				}
				if c.Remove(k, d) != nil {
					return false
				}
				model[k] -= d
			}
		}
		for k, want := range model {
			if c.Count(k) < want {
				return false
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMapletPutGet(t *testing.T) {
	m := NewMaplet(12, 10, 8)
	keys := workload.Keys(3000, 41)
	for i, k := range keys {
		if err := m.Put(k, uint64(i%256)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		vals := m.Get(k)
		found := false
		for _, v := range vals {
			if v == uint64(i%256) {
				found = true
			}
		}
		if !found {
			t.Fatalf("Get(%d) = %v missing value %d", k, vals, i%256)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapletNRS(t *testing.T) {
	m := NewMapletForCapacity(10000, 1.0/256, 8)
	keys := workload.Keys(10000, 43)
	for _, k := range keys {
		m.Put(k, k&0xFF)
	}
	neg := workload.DisjointKeys(100000, 43)
	totalCands := 0
	for _, k := range neg {
		totalCands += len(m.Get(k))
	}
	nrs := float64(totalCands) / float64(len(neg))
	if nrs > 3.0/256 {
		t.Errorf("NRS = %f, want about 1/256", nrs)
	}
}

func TestMapletMultiValue(t *testing.T) {
	m := NewMaplet(8, 10, 8)
	m.Put(7, 1)
	m.Put(7, 2)
	m.Put(7, 3)
	vals := m.Get(7)
	if len(vals) != 3 {
		t.Fatalf("Get = %v, want 3 values", vals)
	}
	if err := m.Delete(7, 2); err != nil {
		t.Fatal(err)
	}
	vals = m.Get(7)
	if len(vals) != 2 {
		t.Fatalf("after delete Get = %v", vals)
	}
	if err := m.Delete(7, 99); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("delete absent value: %v", err)
	}
}

func TestMapletUpdate(t *testing.T) {
	m := NewMaplet(8, 10, 8)
	m.Put(9, 5)
	if err := m.Update(9, 5, 6); err != nil {
		t.Fatal(err)
	}
	vals := m.Get(9)
	if len(vals) != 1 || vals[0] != 6 {
		t.Fatalf("after update Get = %v", vals)
	}
}

func TestMapletGetAppendMatchesGet(t *testing.T) {
	m := NewMaplet(12, 10, 20)
	keys := workload.Keys(3000, 53)
	for i, k := range keys {
		if err := m.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := append(append([]uint64{}, keys[:500]...), workload.DisjointKeys(500, 53)...)
	scratch := make([]uint64, 0, 8)
	for _, k := range probe {
		want := m.Get(k)
		got := m.GetAppend(scratch[:0], k)
		if len(got) != len(want) {
			t.Fatalf("GetAppend(%d) = %v, Get = %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("GetAppend(%d) = %v, Get = %v", k, got, want)
			}
		}
	}
}

func TestMapletGetBatchMatchesGet(t *testing.T) {
	m := NewMaplet(12, 10, 20)
	keys := workload.Keys(4000, 59)
	for i, k := range keys {
		if err := m.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := append(append([]uint64{}, keys[:700]...), workload.DisjointKeys(700, 59)...)
	// A batch that is not a multiple of the chunk size exercises the
	// tail path.
	probe = probe[:1399]
	ends, vals := m.GetBatch(probe, nil, nil)
	if len(ends) != len(probe) {
		t.Fatalf("GetBatch returned %d ends for %d keys", len(ends), len(probe))
	}
	lo := int32(0)
	for i, k := range probe {
		want := m.Get(k)
		got := vals[lo:ends[i]]
		if len(got) != len(want) {
			t.Fatalf("key %d: batch candidates %v, scalar %v", k, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("key %d: batch candidates %v, scalar %v", k, got, want)
			}
		}
		lo = ends[i]
	}
}

// TestMapletProbeBatchMatchesGet drives ProbeBatch across geometries
// that reach every path of its kernel: tables below 64 slots (no
// window), remainders of one to twenty bits (runs of colliding
// entries, many candidates per key), one to three slots per window,
// loads up to 0.9 (long clusters, runs across words and past slot 0),
// keys with several values, identity fingerprints, and keys taken in
// order or through a shuffled index list.
func TestMapletProbeBatchMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, g := range []struct {
		q, r, v  uint
		identity bool
	}{
		{4, 8, 4, false}, {6, 3, 2, false}, {8, 1, 1, false}, {10, 6, 5, false},
		{12, 12, 5, false}, {9, 10, 40, false}, {7, 20, 12, false}, {10, 4, 3, true},
	} {
		for _, load := range []float64{0.3, 0.6, 0.9} {
			m := NewMaplet(g.q, g.r, g.v)
			if g.identity {
				m = NewMapletIdentity(g.q, g.r, g.v)
			}
			var keys []uint64
			for i := 0; m.LoadFactor() < load; i++ {
				k := rng.Uint64()
				if i%5 == 4 && len(keys) > 0 {
					k = keys[rng.Intn(len(keys))] // a second value for a key
				} else {
					keys = append(keys, k)
				}
				if err := m.Put(k, rng.Uint64()); err != nil {
					break
				}
			}
			probe := append(append([]uint64{}, keys...), workload.DisjointKeys(len(keys), 61)...)
			for _, ordered := range []bool{true, false} {
				for at := 0; at < len(probe); at += core.BatchChunk {
					chunk := probe[at:min(at+core.BatchChunk, len(probe))]
					var idx []int32
					src := chunk
					if !ordered {
						src = probe
						idx = make([]int32, len(chunk))
						for j := range idx {
							idx[j] = int32(rng.Intn(len(probe)))
						}
					}
					first := make([]uint64, len(chunk))
					count := make([]uint32, len(chunk))
					more := m.ProbeBatch(src, idx, first, count, nil)
					for j := range chunk {
						k := src[j]
						if idx != nil {
							k = src[idx[j]]
						}
						want := m.Get(k)
						got := []uint64(nil)
						if count[j] > 0 {
							got = append(got, first[j])
							got = append(got, more[:count[j]-1]...)
							more = more[count[j]-1:]
						}
						if len(got) != len(want) {
							t.Fatalf("%+v load %.1f key %d: ProbeBatch %v, Get %v", g, load, k, got, want)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%+v load %.1f key %d: ProbeBatch %v, Get %v", g, load, k, got, want)
							}
						}
					}
					if len(more) != 0 {
						t.Fatalf("%+v: %d extra candidates left over", g, len(more))
					}
				}
			}
		}
	}
}

func TestMapletExpand(t *testing.T) {
	m := NewMaplet(8, 12, 8)
	keys := workload.Keys(200, 47)
	for i, k := range keys {
		m.Put(k, uint64(i%256))
	}
	for e := 0; e < 3; e++ {
		if err := m.Expand(); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		vals := m.Get(k)
		found := false
		for _, v := range vals {
			if v == uint64(i%256) {
				found = true
			}
		}
		if !found {
			t.Fatalf("value lost after expansion for key %d", k)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResolvingMapletPRS1(t *testing.T) {
	rm := NewResolvingMaplet(5000, 1.0/64, 8) // coarse fingerprints: collisions happen
	keys := workload.Keys(5000, 53)
	truth := map[uint64]uint64{}
	for i, k := range keys {
		v := uint64(i % 256)
		if err := rm.Put(k, v); err != nil {
			t.Fatal(err)
		}
		truth[k] = v
	}
	for k, want := range truth {
		vals := rm.Get(k)
		if len(vals) != 1 {
			t.Fatalf("PRS != 1: Get(%d) = %v", k, vals)
		}
		if vals[0] != want {
			t.Fatalf("wrong value: Get(%d) = %d, want %d", k, vals[0], want)
		}
	}
	if rm.AuxLen() == 0 {
		t.Log("no collisions diverted (possible but unlikely at 1/64)")
	}
}

func BenchmarkQFInsert(b *testing.B) {
	f := New(22, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Insert(uint64(i)) != nil {
			b.Fatal("full")
		}
	}
}

func BenchmarkQFContains(b *testing.B) {
	f := New(20, 9)
	for i := 0; i < 900000; i++ {
		f.Insert(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}

func BenchmarkCQFAdd(b *testing.B) {
	c := NewCounting(22, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Add(uint64(i%100000), 1) != nil {
			b.Fatal("full")
		}
	}
}
