// Package persisttest exercises the persistence layer across every
// registered filter type in one place: round-trip property tests
// (bit-identical re-encoding, identical query answers after reload),
// SizeBits-versus-encoded-length cross-checks, golden files pinning
// the version-1 wire format, and a fuzzer feeding mutated frames to
// the registry loader. It lives apart from the filter packages so the
// same fixtures drive every check and a new Persistent implementation
// only needs a fixture entry here to inherit the whole suite.
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

// Fixture is one built, populated filter ready for persistence checks.
type Fixture struct {
	Name   string
	Filter core.Persistent
	Keys   []uint64 // the inserted keys
	// Components counts the independently framed structures inside the
	// encoding (shards for wrappers, 1 otherwise); the SizeBits
	// cross-check scales its header-overhead allowance by it.
	Components int
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
	keys := Keys(n, 1)
	var fixtures []Fixture

	bf := bloom.NewBits(n, 10)
	for _, k := range keys {
		if err := bf.Insert(k); err != nil {
			return nil, fmt.Errorf("bloom insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "bloom", Filter: bf, Keys: keys, Components: 1})

	bb := bloom.NewBlocked(n, 10)
	for _, k := range keys {
		if err := bb.Insert(k); err != nil {
			return nil, fmt.Errorf("blocked insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "bloom.Blocked", Filter: bb, Keys: keys, Components: 1})

	bc := bloom.NewBlockedChoices(n, 10)
	for _, k := range keys {
		if err := bc.Insert(k); err != nil {
			return nil, fmt.Errorf("choices insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "bloom.BlockedChoices", Filter: bc, Keys: keys, Components: 1})

	cf := cuckoo.New(n, 12)
	for _, k := range keys {
		if err := cf.Insert(k); err != nil {
			return nil, fmt.Errorf("cuckoo insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "cuckoo", Filter: cf, Keys: keys, Components: 1})

	qf := quotient.NewForCapacity(n, 1.0/1024)
	for _, k := range keys {
		if err := qf.Insert(k); err != nil {
			return nil, fmt.Errorf("quotient insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "quotient", Filter: qf, Keys: keys, Components: 1})

	xf, err := xorfilter.New(keys, 12)
	if err != nil {
		return nil, fmt.Errorf("xorfilter build: %w", err)
	}
	fixtures = append(fixtures, Fixture{Name: "xorfilter", Filter: xf, Keys: keys, Components: 1})

	const logShards = 2
	sf, err := concurrent.NewSharded(logShards, func(int) core.DeletableFilter {
		return cuckoo.New(n>>logShards+16, 12)
	})
	if err != nil {
		return nil, fmt.Errorf("sharded build: %w", err)
	}
	for _, k := range keys {
		if err := sf.Insert(k); err != nil {
			return nil, fmt.Errorf("sharded insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "concurrent.Sharded", Filter: sf, Keys: keys, Components: 1 << logShards})

	// The growable filters start well under n so the fixtures capture
	// real growth state (expansion counters, stage chains, mid-table
	// migration) rather than a filter still in its first configuration.
	sb, err := bloom.NewScalable(n/8+1, 1.0/128)
	if err != nil {
		return nil, fmt.Errorf("scalable build: %w", err)
	}
	for _, k := range keys {
		if err := sb.Insert(k); err != nil {
			return nil, fmt.Errorf("scalable insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "bloom.Scalable", Filter: sb, Keys: keys, Components: 1})

	inf, err := quotient.NewInfini(4)
	if err != nil {
		return nil, fmt.Errorf("infini build: %w", err)
	}
	for _, k := range keys {
		if err := inf.Insert(k); err != nil {
			return nil, fmt.Errorf("infini insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "infini", Filter: inf, Keys: keys, Components: 1})

	tf, err := taffy.New(8, 1.0/128)
	if err != nil {
		return nil, fmt.Errorf("taffy build: %w", err)
	}
	for _, k := range keys {
		if err := tf.Insert(k); err != nil {
			return nil, fmt.Errorf("taffy insert: %w", err)
		}
	}
	fixtures = append(fixtures, Fixture{Name: "taffy", Filter: tf, Keys: keys, Components: 1})

	return fixtures, nil
}
