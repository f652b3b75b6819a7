package core

import "testing"

// parityFilter is a toy exact filter (even keys are members) used to
// exercise the dispatch paths without importing a real filter package.
type parityFilter struct{ batched int }

func (p *parityFilter) Contains(key uint64) bool { return key%2 == 0 }
func (p *parityFilter) SizeBits() int            { return 0 }

// batchedParity additionally implements BatchFilter, counting how many
// times the native path was taken.
type batchedParity struct{ parityFilter }

func (p *batchedParity) ContainsBatch(keys []uint64, out []bool) {
	p.batched++
	ContainsBatchScalar(&p.parityFilter, keys, out)
}

func TestContainsBatchScalarFallback(t *testing.T) {
	f := &parityFilter{}
	keys := []uint64{0, 1, 2, 3, 4, 7}
	out := make([]bool, len(keys))
	ContainsBatch(f, keys, out)
	for i, k := range keys {
		if out[i] != f.Contains(k) {
			t.Errorf("out[%d] = %v, want %v", i, out[i], f.Contains(k))
		}
	}
}

func TestContainsBatchDispatchesNative(t *testing.T) {
	f := &batchedParity{}
	keys := []uint64{1, 2, 3}
	out := make([]bool, len(keys))
	ContainsBatch(f, keys, out)
	if f.batched != 1 {
		t.Fatalf("native ContainsBatch called %d times, want 1", f.batched)
	}
	if out[0] || !out[1] || out[2] {
		t.Fatalf("wrong answers: %v", out)
	}
}

func TestContainsBatchOutReuse(t *testing.T) {
	f := &parityFilter{}
	out := make([]bool, 8)
	for i := range out {
		out[i] = true // stale garbage from a previous batch
	}
	ContainsBatch(f, []uint64{1, 3}, out)
	if out[0] || out[1] {
		t.Fatal("stale out entries not overwritten")
	}
	// Entries past len(keys) are untouched.
	if !out[2] {
		t.Fatal("entry past len(keys) was clobbered")
	}
	// Empty and nil batches are no-ops.
	ContainsBatch(f, nil, nil)
	ContainsBatch(f, []uint64{}, out[:0])
}

// cappedSet is a toy mutable filter that refuses inserts past cap, so
// the scalar InsertBatch fallback's stop-at-first-error is observable.
type cappedSet struct {
	keys []uint64
	cap  int
}

func (c *cappedSet) Contains(key uint64) bool { return false }
func (c *cappedSet) SizeBits() int            { return 0 }
func (c *cappedSet) Insert(key uint64) error {
	if len(c.keys) == c.cap {
		return ErrFull
	}
	c.keys = append(c.keys, key)
	return nil
}

// batchedSet additionally implements BatchInserter, counting how many
// times the native path was taken.
type batchedSet struct {
	cappedSet
	batched int
}

func (b *batchedSet) InsertBatch(keys []uint64) error {
	b.batched++
	b.keys = append(b.keys, keys...)
	return nil
}

func TestInsertBatchDispatch(t *testing.T) {
	f := &cappedSet{cap: 2}
	if err := InsertBatch(f, []uint64{5, 6, 7, 8}); err != ErrFull {
		t.Fatalf("fallback past capacity = %v, want ErrFull", err)
	}
	if len(f.keys) != 2 || f.keys[0] != 5 || f.keys[1] != 6 {
		t.Fatalf("fallback inserted %v, want [5 6] in order", f.keys)
	}
	b := &batchedSet{}
	if err := InsertBatch(b, []uint64{1, 2, 3}); err != nil || b.batched != 1 || len(b.keys) != 3 {
		t.Fatalf("native InsertBatch: err %v, called %d times, keys %v", err, b.batched, b.keys)
	}
	if err := InsertBatch(f, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestContainsBatchShortOutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short out slice")
		}
	}()
	ContainsBatchScalar(&parityFilter{}, []uint64{1, 2, 3}, make([]bool, 2))
}
