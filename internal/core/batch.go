package core

// BatchChunk is the number of keys the native batched probes stage at a
// time. One chunk of precomputed hash state (a few stack-allocated
// arrays of 256 words) fits comfortably in L1, so the hash-once phase
// never evicts the filter data the probe-many phase is about to touch.
const BatchChunk = 256

// BatchFilter is a Filter with a native batched membership probe.
// ContainsBatch must be exactly equivalent to calling Contains on each
// key in order — same answers, including the no-false-negative
// guarantee — but is free to reorder and pipeline the underlying memory
// accesses. Implementations precompute all hash state for a chunk of
// keys up front (hash-once), then issue the probes in tight loops
// (probe-many) so cache misses overlap instead of serializing behind
// hash computation and per-key branch mispredictions.
type BatchFilter interface {
	Filter
	// ContainsBatch writes Contains(keys[i]) into out[i] for every i.
	// It panics if len(out) < len(keys). out is caller-owned and may be
	// reused across calls without clearing; every entry in
	// out[:len(keys)] is overwritten.
	ContainsBatch(keys []uint64, out []bool)
}

// ContainsBatch probes f with every key, dispatching to the native
// batched path when f implements BatchFilter and falling back to a
// scalar loop otherwise. Callers that hold a batch of lookups (LSM
// point reads, k-mer scans, URL checks) should always go through this
// instead of looping over Contains themselves.
func ContainsBatch(f Filter, keys []uint64, out []bool) {
	if bf, ok := f.(BatchFilter); ok {
		bf.ContainsBatch(keys, out)
		return
	}
	ContainsBatchScalar(f, keys, out)
}

// ContainsBatchScalar is the generic fallback: a plain scalar loop with
// the same contract as BatchFilter.ContainsBatch. Filters without a
// profitable batched layout can delegate to it to satisfy the
// interface.
func ContainsBatchScalar(f Filter, keys []uint64, out []bool) {
	_ = out[:len(keys)] // bounds check once, before any probe
	for i, k := range keys {
		out[i] = f.Contains(k)
	}
}

// BatchInserter is a MutableFilter with a native batched insert, the
// write-side twin of BatchFilter. InsertBatch must leave the filter
// exactly as calling Insert on each key in order would — same state,
// same Len — but is free to reorder and pipeline the memory accesses.
// It returns the first error an insert meets; which of the other keys
// were inserted by then is unspecified.
type BatchInserter interface {
	MutableFilter
	InsertBatch(keys []uint64) error
}

// InsertBatch inserts every key into f, dispatching to the native
// batched path when f implements BatchInserter and falling back to a
// scalar Insert loop, which stops at the first error, otherwise.
func InsertBatch(f MutableFilter, keys []uint64) error {
	if bi, ok := f.(BatchInserter); ok {
		return bi.InsertBatch(keys)
	}
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			return err
		}
	}
	return nil
}
