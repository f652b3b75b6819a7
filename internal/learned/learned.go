// Package learned implements the classifier-based filter of §2.8's first
// half: given a sample of historical queries, train a model that
// predicts which keys are likely to be queried *and present*, answer
// those directly, and keep a conventional backup filter only for the
// positives the model misses. Frequently-queried positive keys then cost
// no filter space at all — the tutorial's "avoid having to insert them
// into a regular filter to save space".
//
// Substitution note (DESIGN.md §3): the papers train neural or
// gradient-boosted classifiers; stdlib-only Go substitutes a counting
// sketch over the query sample with a hot-key score threshold. The
// space/FPR mechanism under study — classifier handles the hot head,
// backup filter handles the tail — is identical; only the classifier's
// generalization differs (ours memorizes rather than generalizes, which
// for the skewed-workload claims is the relevant behaviour).
package learned

import (
	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
)

// Filter is a trained filter: classifier + backup.
type Filter struct {
	hot       map[uint64]struct{} // keys the classifier answers positively
	backup    *bloom.Filter
	threshold int
}

// New builds a learned filter over keys. querySample is a sample of the
// historical query stream (keys, with repetition); hotFraction of the
// backup budget is diverted to memorizing the hottest sampled positive
// keys.
//
// Keys whose sampled positive-query frequency reaches threshold are
// answered by the classifier (exactly); everything else goes to a Bloom
// backup with bitsPerKey budget.
func New(keys []uint64, querySample []uint64, threshold int, bitsPerKey float64) *Filter {
	keySet := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		keySet[k] = struct{}{}
	}
	// Count positive queries in the sample.
	freq := map[uint64]int{}
	for _, q := range querySample {
		if _, pos := keySet[q]; pos {
			freq[q]++
		}
	}
	f := &Filter{hot: make(map[uint64]struct{}), threshold: threshold}
	var cold []uint64
	for _, k := range keys {
		if freq[k] >= threshold {
			f.hot[k] = struct{}{}
		} else {
			cold = append(cold, k)
		}
	}
	f.backup = bloom.NewBitsSeeded(max(len(cold), 1), bitsPerKey, 0x1EA12ED)
	for _, k := range cold {
		f.backup.Insert(k)
	}
	return f
}

// Contains answers via the classifier for hot keys, the backup filter
// otherwise. No false negatives: every key is in exactly one of the two.
func (f *Filter) Contains(key uint64) bool {
	if _, ok := f.hot[key]; ok {
		return true
	}
	return f.backup.Contains(key)
}

// HotKeys returns how many keys the classifier absorbed.
func (f *Filter) HotKeys() int { return len(f.hot) }

// SizeBits charges the backup filter plus the classifier. The hot table
// is charged at the cost a compact exact representation of its keys
// would need (a perfect-hash table of fingerprint-sized entries ≈ 16
// bits each plus keys' information content is *not* needed — membership
// of a known finite set needs log2(C(u,n)) bits, but we charge a
// practical 16 bits/hot key, comparable to what the papers' model sizes
// amount to).
func (f *Filter) SizeBits() int {
	return f.backup.SizeBits() + len(f.hot)*16
}

var _ core.Filter = (*Filter)(nil)
