// Package core defines the common interfaces and shared plumbing of the
// filter library: the filter capability interfaces (the "modern filter
// API" the tutorial advocates), sentinel errors, and space/FPR accounting
// helpers used by the experiment harness.
//
// Keys are uint64 throughout the core API. Applications with byte-string
// keys (URLs, k-mers, ...) hash them at the edge with hashutil.Sum64;
// structures that need the original byte strings (the SuRF trie) expose
// their own []byte-keyed API in addition.
package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// Sentinel errors returned by filter operations.
var (
	// ErrFull is returned by Insert when the structure cannot accept more
	// items at its configured capacity (e.g. a cuckoo filter whose kick
	// loop failed, or a quotient filter at maximum load).
	ErrFull = errors.New("filter: full")

	// ErrNotFound is returned by Delete when the key's fingerprint is not
	// present. Deleting a key that was never inserted is a caller bug for
	// most filters (it can remove another key's fingerprint), so callers
	// should only delete keys they know are present.
	ErrNotFound = errors.New("filter: not found")

	// ErrImmutable is returned by mutation methods on static filters.
	ErrImmutable = errors.New("filter: immutable")
)

// Filter is the minimal read-side interface: approximate membership with
// one-sided error. Contains must return true for every inserted key
// (no false negatives) and false with probability at least 1-ε for keys
// never inserted.
type Filter interface {
	// Contains reports whether key may be in the set.
	Contains(key uint64) bool
	// SizeBits returns the memory footprint of the structure in bits.
	SizeBits() int
}

// MutableFilter supports insertions after construction (the tutorial's
// semi-dynamic class when Delete is absent).
type MutableFilter interface {
	Filter
	Insert(key uint64) error
}

// DeletableFilter supports both insertions and deletions (the tutorial's
// dynamic class).
type DeletableFilter interface {
	MutableFilter
	Delete(key uint64) error
}

// GrowableFilter is a MutableFilter that never stops growing (the
// tutorial's §2.2 "future feature"): Insert must never fail for
// capacity reasons — the structure expands itself under live traffic
// instead. Implementations commit to a compound false-positive budget
// chosen at construction and report how many capacity doublings they
// have performed, so callers can watch bits/key and FPR drift as the
// set grows (experiment E23).
type GrowableFilter interface {
	MutableFilter
	// Expansions returns the number of capacity doublings performed
	// since construction.
	Expansions() int
	// FPRBudget returns the target compound false-positive rate the
	// filter was configured to maintain across growth. How tightly the
	// budget holds under unbounded expansion is implementation-specific
	// (taffy-style bit donation keeps it within a small constant;
	// InfiniFilter-style donation drifts linearly per doubling).
	FPRBudget() float64
}

// CountingFilter represents multisets: a query returns the number of
// times a key was inserted. Counts may overreport (by fingerprint
// collision) with probability at most δ, but must never underreport
// while within capacity.
type CountingFilter interface {
	Filter
	// Add inserts delta occurrences of key (delta >= 1).
	Add(key uint64, delta uint64) error
	// Remove deletes delta occurrences of key.
	Remove(key uint64, delta uint64) error
	// Count returns the (possibly overestimated) multiplicity of key.
	Count(key uint64) uint64
}

// Maplet associates a small value with each key (the tutorial §2.4).
// Get returns the set of candidate values: for a present key it includes
// the true value plus possibly extra collisions (expected positive result
// size PRS); for an absent key it returns collisions only (expected
// negative result size NRS).
type Maplet interface {
	// Put associates value with key.
	Put(key, value uint64) error
	// Get returns all candidate values for key.
	Get(key uint64) []uint64
	// SizeBits returns the memory footprint in bits.
	SizeBits() int
}

// DeletableMaplet additionally supports removing an association.
type DeletableMaplet interface {
	Maplet
	Delete(key, value uint64) error
}

// RangeFilter answers ε-approximate range-emptiness queries over uint64
// keys (the tutorial §2.5): MayContainRange must return true whenever
// [lo, hi] intersects the key set, and false with probability at least
// 1-ε otherwise.
type RangeFilter interface {
	// MayContainRange reports whether the closed interval [lo, hi] may
	// contain a key.
	MayContainRange(lo, hi uint64) bool
	// SizeBits returns the memory footprint in bits.
	SizeBits() int
}

// Remote is the exact backing representation an adaptive filter consults
// when fixing false positives (the "dictionary on disk" in the broom
// filter model). Accesses to it are what the filter is trying to avoid,
// so implementations used in experiments count them.
type Remote interface {
	// Contains reports exact membership of key.
	Contains(key uint64) bool
}

// AdaptiveFilter is a filter that repairs itself when told a positive
// answer was false, so that repeating the same negative query does not
// repeat the error (the tutorial §2.3).
type AdaptiveFilter interface {
	Filter
	// Adapt informs the filter that Contains(key) returned true but the
	// remote said the key is absent. The filter updates itself so a
	// subsequent Contains(key) returns false (monotone adaptivity may
	// take O(1) amortized structural work).
	Adapt(key uint64)
}

// MapSet is a trivial exact Remote backed by a Go map. It also counts
// accesses, standing in for disk I/Os in adaptivity experiments. It is
// safe for concurrent use: lookups share a read lock and the access
// counter is atomic, so a MapSet can mirror a concurrent store.
type MapSet struct {
	mu       sync.RWMutex
	m        map[uint64]struct{}
	accesses atomic.Int64
}

// NewMapSet returns an empty exact set.
func NewMapSet() *MapSet { return &MapSet{m: make(map[uint64]struct{})} }

// Insert adds key to the set.
func (s *MapSet) Insert(key uint64) {
	s.mu.Lock()
	s.m[key] = struct{}{}
	s.mu.Unlock()
}

// Delete removes key from the set.
func (s *MapSet) Delete(key uint64) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// Contains reports exact membership and counts the access.
func (s *MapSet) Contains(key uint64) bool {
	s.accesses.Add(1)
	s.mu.RLock()
	_, ok := s.m[key]
	s.mu.RUnlock()
	return ok
}

// Accesses returns how many Contains calls the set has served.
func (s *MapSet) Accesses() int { return int(s.accesses.Load()) }

// Len returns the set cardinality.
func (s *MapSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// BitsPerKey returns the space of a filter normalized by the number of
// keys it holds.
func BitsPerKey(f Filter, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(f.SizeBits()) / float64(n)
}

// LowerBoundBits returns the information-theoretic lower bound
// log2(1/epsilon) in bits per key for a membership filter.
func LowerBoundBits(epsilon float64) float64 {
	return math.Log2(1 / epsilon)
}

// BloomBitsPerKey returns the bits/key a classic Bloom filter needs for a
// target false-positive rate: 1.44 * log2(1/epsilon).
func BloomBitsPerKey(epsilon float64) float64 {
	return math.Log2(math.E) * math.Log2(1/epsilon)
}

// BloomOptimalK returns the optimal number of hash functions for a Bloom
// filter with bitsPerKey bits per key: k = ln(2) * bits/key.
func BloomOptimalK(bitsPerKey float64) int {
	k := int(math.Round(math.Ln2 * bitsPerKey))
	if k < 1 {
		k = 1
	}
	return k
}
