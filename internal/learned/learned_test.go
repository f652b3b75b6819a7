package learned

import (
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// buildWorkload returns keys plus a Zipf-skewed positive query sample.
func buildWorkload(n int, seed uint64) (keys, sample []uint64) {
	keys = workload.Keys(n, seed)
	idx := workload.Zipf(n*5, n, 1.3, int64(seed))
	sample = make([]uint64, len(idx))
	for i, j := range idx {
		sample[i] = keys[j]
	}
	return
}

func TestNoFalseNegatives(t *testing.T) {
	keys, sample := buildWorkload(20000, 1)
	f := New(keys, sample, 3, 10)
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatalf("%d false negatives", fn)
	}
	if f.HotKeys() == 0 {
		t.Fatal("classifier absorbed no keys from a skewed sample")
	}
}

func TestHotKeysLeaveBackup(t *testing.T) {
	keys, sample := buildWorkload(20000, 2)
	f := New(keys, sample, 3, 10)
	// Backup is sized for cold keys only: it should be smaller than a
	// filter over everything at the same bits/key.
	plain := bloom.NewBits(len(keys), 10)
	if f.backup.SizeBits() >= plain.SizeBits() {
		t.Errorf("backup %d bits not below full filter %d", f.backup.SizeBits(), plain.SizeBits())
	}
}

func TestColdNegativeFPRPreserved(t *testing.T) {
	keys, sample := buildWorkload(20000, 3)
	f := New(keys, sample, 3, 10)
	neg := workload.DisjointKeys(100000, 3)
	if fpr := metrics.FPR(f, neg); fpr > 0.02 {
		t.Errorf("negative FPR %g too high", fpr)
	}
}

func TestThresholdControlsAbsorption(t *testing.T) {
	keys, sample := buildWorkload(20000, 4)
	loose := New(keys, sample, 1, 10)
	strict := New(keys, sample, 50, 10)
	if loose.HotKeys() <= strict.HotKeys() {
		t.Errorf("threshold 1 absorbed %d keys, threshold 50 absorbed %d",
			loose.HotKeys(), strict.HotKeys())
	}
}

func TestEmptySample(t *testing.T) {
	keys := workload.Keys(1000, 5)
	f := New(keys, nil, 3, 10)
	if f.HotKeys() != 0 {
		t.Fatal("no sample should mean no hot keys")
	}
	if fn := metrics.FalseNegatives(f, keys); fn != 0 {
		t.Fatal("false negatives with empty sample")
	}
}
