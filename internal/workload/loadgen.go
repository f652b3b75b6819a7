package workload

import (
	"math"
	"math/rand"
	"sort"
)

// This file is the load-generation side of the workload package: open-
// loop arrival schedules and latency aggregation for the service
// experiments (E21). Like everything else here it is seeded and
// deterministic.

// PoissonArrivals returns n cumulative arrival offsets in nanoseconds
// for an open-loop Poisson process with the given mean rate (events per
// second). Offset i is when request i should be injected, measured from
// the start of the run; inter-arrival gaps are exponential, so bursts
// and lulls both occur, which is exactly what a batching dispatcher
// has to survive.
func PoissonArrivals(n int, ratePerSec float64, seed int64) []int64 {
	if ratePerSec <= 0 {
		panic("workload: arrival rate must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	t := float64(0)
	meanGapNs := 1e9 / ratePerSec
	for i := range out {
		t += rng.ExpFloat64() * meanGapNs
		out[i] = int64(t)
	}
	return out
}

// LatencyRecorder accumulates request latencies (in nanoseconds) and
// reports percentiles. It is not concurrency-safe: each loadgen worker
// records into its own recorder, or one sink goroutine owns it.
type LatencyRecorder struct {
	samples []int64
	sorted  bool
}

// NewLatencyRecorder pre-sizes the sample buffer.
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]int64, 0, capacity)}
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(ns int64) {
	r.samples = append(r.samples, ns)
	r.sorted = false
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Percentile returns the p-th percentile (p in [0, 100]) in
// nanoseconds, using nearest-rank on the sorted samples. Zero samples
// yield zero.
func (r *LatencyRecorder) Percentile(p float64) int64 {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Mean returns the mean latency in nanoseconds.
func (r *LatencyRecorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.samples {
		sum += float64(s)
	}
	return sum / float64(len(r.samples))
}

// RecordAll adds a batch of latency samples.
func (r *LatencyRecorder) RecordAll(ns []int64) {
	r.samples = append(r.samples, ns...)
	r.sorted = false
}
