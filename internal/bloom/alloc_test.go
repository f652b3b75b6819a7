package bloom

import (
	"testing"

	"beyondbloom/internal/workload"
)

// The scalar and batched lookup paths are the hottest code in the
// library; they must not allocate, per key or per batch.

func TestContainsZeroAllocs(t *testing.T) {
	f := New(10000, 1.0/1024)
	keys := workload.Keys(10000, 5)
	for _, k := range keys {
		f.Insert(k)
	}
	if avg := testing.AllocsPerRun(100, func() {
		f.Contains(keys[0])
		f.Contains(0xDEADBEEF)
	}); avg != 0 {
		t.Fatalf("bloom.Contains allocates %v per run, want 0", avg)
	}
}

func TestContainsBatchZeroAllocs(t *testing.T) {
	f := New(10000, 1.0/1024)
	keys := workload.Keys(10000, 6)
	for _, k := range keys {
		f.Insert(k)
	}
	batch := keys[:300] // spans two chunks
	out := make([]bool, len(batch))
	if avg := testing.AllocsPerRun(100, func() {
		f.ContainsBatch(batch, out)
	}); avg != 0 {
		t.Fatalf("bloom.ContainsBatch allocates %v per run, want 0", avg)
	}
}

func TestBlockedZeroAllocs(t *testing.T) {
	f := NewBlocked(10000, 12)
	keys := workload.Keys(10000, 7)
	for _, k := range keys {
		f.Insert(k)
	}
	out := make([]bool, 300)
	if avg := testing.AllocsPerRun(100, func() {
		f.Contains(keys[0])
		f.ContainsBatch(keys[:300], out)
	}); avg != 0 {
		t.Fatalf("blocked bloom lookups allocate %v per run, want 0", avg)
	}
}

func TestBlockedInsertBatchZeroAllocs(t *testing.T) {
	f := NewBlocked(10000, 12)
	keys := workload.Keys(4096, 8)
	if avg := testing.AllocsPerRun(100, func() {
		f.InsertBatch(keys)
	}); avg != 0 {
		t.Fatalf("blocked bloom InsertBatch allocates %v per run, want 0", avg)
	}
}
