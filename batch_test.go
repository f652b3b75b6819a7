package beyondbloom

// Property tests for the batched query engine: every filter that
// implements core.BatchFilter must agree exactly with its own scalar
// Contains on arbitrary batches — random, duplicate-heavy, empty,
// single-key, odd-length, and mixed present/absent. Batching is a pure
// performance transform; any divergence is a bug.

import (
	"math/rand"
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/xorfilter"
)

// batchFixture is one BatchFilter implementation loaded with half of
// its key set (so batches mix members and non-members).
type batchFixture struct {
	name string
	f    core.BatchFilter
	keys []uint64 // keys[:len/2] inserted, rest absent
}

const propN = 1 << 14

func batchFixtures(t *testing.T) []batchFixture {
	t.Helper()
	keys := workload.Keys(propN, 97)
	half := keys[:propN/2]

	bf := bloom.New(propN, 1.0/1024)
	bb := bloom.NewBlocked(propN, 12)
	bc := bloom.NewBlockedChoices(propN, 12)
	cf := cuckoo.New(propN, 13)
	qf := quotient.New(15, 10)
	for _, k := range half {
		bf.Insert(k)
		bb.Insert(k)
		bc.Insert(k)
		if err := cf.Insert(k); err != nil {
			t.Fatal(err)
		}
		if err := qf.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	xf, err := xorfilter.New(half, 10)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := concurrent.NewSharded(4, func(int) core.DeletableFilter {
		return cuckoo.New(propN/8, 13)
	})
	if err != nil {
		t.Fatal(err)
	}
	shc, err := concurrent.NewShardedMutable(3, func(int) core.MutableFilter {
		return bloom.NewBlockedChoices(propN/4, 12)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range half {
		if err := sh.Insert(k); err != nil {
			t.Fatal(err)
		}
		if err := shc.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	return []batchFixture{
		{"bloom", bf, keys},
		{"bloom_blocked", bb, keys},
		{"bloom_choices", bc, keys},
		{"cuckoo", cf, keys},
		{"quotient", qf, keys},
		{"xor", xf, keys},
		{"sharded_cuckoo", sh, keys},
		{"sharded_choices", shc, keys},
	}
}

// assertBatchMatchesScalar probes fx with batch both ways and fails on
// the first disagreement.
func assertBatchMatchesScalar(t *testing.T, fx batchFixture, batch []uint64) {
	t.Helper()
	out := make([]bool, len(batch)+3)
	for i := range out {
		out[i] = i%2 == 0 // stale garbage the batch must overwrite
	}
	fx.f.ContainsBatch(batch, out)
	for i, k := range batch {
		if want := fx.f.Contains(k); out[i] != want {
			t.Fatalf("%s: batch[%d] (key %d) = %v, scalar = %v (batch len %d)",
				fx.name, i, k, out[i], want, len(batch))
		}
	}
}

func TestBatchScalarEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	fixtures := batchFixtures(t)
	absent := workload.DisjointKeys(propN, 97)
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			// Adversarial shapes: empty, nil, single key, odd lengths,
			// exactly one chunk, one chunk ± 1.
			assertBatchMatchesScalar(t, fx, nil)
			assertBatchMatchesScalar(t, fx, []uint64{})
			assertBatchMatchesScalar(t, fx, fx.keys[:1])
			assertBatchMatchesScalar(t, fx, absent[:1])
			for _, n := range []int{3, 17, 255, 256, 257, 511, 1001} {
				assertBatchMatchesScalar(t, fx, fx.keys[:n])
			}
			// Duplicate-heavy: one key repeated, and a pair alternating.
			dup := make([]uint64, 301)
			for i := range dup {
				dup[i] = fx.keys[0]
				if i%2 == 1 {
					dup[i] = absent[0]
				}
			}
			assertBatchMatchesScalar(t, fx, dup)
			// Random mixed batches of random lengths.
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(1500)
				batch := make([]uint64, n)
				for i := range batch {
					switch rng.Intn(3) {
					case 0:
						batch[i] = fx.keys[rng.Intn(len(fx.keys))] // maybe member
					case 1:
						batch[i] = absent[rng.Intn(len(absent))] // absent
					default:
						batch[i] = rng.Uint64() // arbitrary
					}
				}
				assertBatchMatchesScalar(t, fx, batch)
			}
		})
	}
}
