package beyondbloom

// Batched-vs-scalar micro-benchmarks: one sub-benchmark per side of
// each of experiment E24's pairs, over E24's own fixtures and closures
// (internal/experiments/exp_claims.go), so `go test -bench FilterPairs
// -cpuprofile` profiles exactly what E24 measures. ns/op is one call of
// one side, a batch of the pair's size. The committed numbers are
// E24's, measured interleaved: `go run ./cmd/beyondbloom exp E24 -json`
// writes BENCH_batch.json (scripts/bench.sh). -short builds the
// fixtures at 1/256 of E24's full scale.

import (
	"testing"

	"beyondbloom/internal/experiments"
)

func BenchmarkFilterPairs(b *testing.B) {
	cfg := experiments.Config{Scale: 1}
	if testing.Short() {
		cfg.Scale = 1.0 / 256
	}
	experiments.ClaimPairs(cfg, func(pair, aName, bName string, opA, opB func()) {
		for _, side := range []struct {
			name string
			op   func()
		}{{aName, opA}, {bName, opB}} {
			b.Run(pair+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					side.op()
				}
			})
		}
	})
}
