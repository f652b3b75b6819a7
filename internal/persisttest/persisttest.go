// Package persisttest states the point-filter contract once and checks
// it on every registered filter type: no false negatives, batched
// probes identical to scalar ones, a batched insert leaving the state
// scalar inserts leave, a reloaded filter growing on like its source,
// batches staying exact after deletes, and zero-allocation probes
// (TestContract, one row per property); plus the persistence checks —
// round trips, SizeBits-versus-encoded-length, golden files pinning
// the version-1 wire format, and fuzzers feeding mutated frames to the
// registry loader. It lives apart from the filter packages so the same
// fixtures drive every check and a new Persistent implementation only
// needs a fixture entry here to inherit the whole suite.
package persisttest

import (
	"fmt"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/taffy"
	"beyondbloom/internal/xorfilter"
)

// Fixture is one built, populated filter ready for the contract checks.
type Fixture struct {
	Name   string
	Filter core.Persistent
	Keys   []uint64 // the inserted keys
	// Components counts the independently framed structures inside the
	// encoding (shards for wrappers, 1 otherwise); the SizeBits
	// cross-check scales its header-overhead allowance by it.
	Components int
	// New builds an empty filter configured like Filter, a twin for a
	// check to fill its own way. Filter is New() given Keys by scalar
	// Insert in order. It is nil for xorfilter, which is built whole
	// from its keys and takes no inserts.
	New func() (core.Persistent, error)
}

// Keys returns n deterministic pseudo-random keys (golden files and
// fuzz corpora need bit-reproducible fixtures, so no math/rand).
func Keys(n int, salt uint64) []uint64 {
	out := make([]uint64, n)
	x := salt*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		out[i] = z
	}
	return out
}

// Fixtures builds one populated fixture per registered filter type
// with n keys each. Construction is fully deterministic: the same n
// always yields bit-identical filters.
func Fixtures(n int) ([]Fixture, error) {
	const logShards = 2
	fixtures := []Fixture{
		{Name: "bloom", New: func() (core.Persistent, error) { return bloom.NewBits(n, 10), nil }},
		{Name: "bloom.Blocked", New: func() (core.Persistent, error) { return bloom.NewBlocked(n, 10), nil }},
		{Name: "bloom.BlockedChoices", New: func() (core.Persistent, error) { return bloom.NewBlockedChoices(n, 10), nil }},
		{Name: "cuckoo", New: func() (core.Persistent, error) { return cuckoo.New(n, 12), nil }},
		{Name: "quotient", New: func() (core.Persistent, error) { return quotient.NewForCapacity(n, 1.0/1024), nil }},
		{Name: "xorfilter"},
		{Name: "concurrent.Sharded", Components: 1 << logShards, New: func() (core.Persistent, error) {
			return persistent(concurrent.NewSharded(logShards, func(int) core.DeletableFilter {
				return cuckoo.New(n>>logShards+16, 12)
			}))
		}},
		// The growable filters start well under n so the fixtures capture
		// real growth state (expansion counters, stage chains, mid-table
		// migration) rather than a filter still in its first configuration.
		{Name: "bloom.Scalable", New: func() (core.Persistent, error) { return persistent(bloom.NewScalable(n/8+1, 1.0/128)) }},
		{Name: "infini", New: func() (core.Persistent, error) { return persistent(quotient.NewInfini(4)) }},
		{Name: "taffy", New: func() (core.Persistent, error) { return persistent(taffy.New(8, 1.0/128)) }},
	}
	keys := Keys(n, 1)
	for i := range fixtures {
		fx := &fixtures[i]
		fx.Keys = keys
		fx.Components = max(fx.Components, 1)
		var err error
		if fx.New == nil {
			fx.Filter, err = persistent(xorfilter.New(keys, 12))
		} else {
			fx.Filter, err = fill(fx.New, keys)
		}
		if err != nil {
			return nil, fmt.Errorf("%s fixture: %w", fx.Name, err)
		}
	}
	return fixtures, nil
}

// fill builds an empty filter and inserts keys in order.
func fill(newFilter func() (core.Persistent, error), keys []uint64) (core.Persistent, error) {
	f, err := newFilter()
	if err != nil {
		return nil, err
	}
	m := f.(core.MutableFilter)
	for _, k := range keys {
		if err := m.Insert(k); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// persistent widens a constructor's concrete result to core.Persistent.
func persistent[F core.Persistent](f F, err error) (core.Persistent, error) { return f, err }
