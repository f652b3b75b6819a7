package metrics

import (
	"runtime"
	"slices"
	"time"
)

// Interleave times ops against each other on the same host minute: it
// calls every op in turn, in slices of about slice each, so a slow
// period of the host lands on all of them alike. It first finds how
// many calls of each op fill one slice on average, then runs that many
// per op in each of slices slices, starting each slice at the next op
// (A B, B A, ... for two). It returns ns[j][i], op j's time per call in
// slice i. clock is a monotonic time; tests pass one that counts calls.
func Interleave(slices int, slice time.Duration, clock func() time.Duration, ops ...func()) (ns [][]float64) {
	calls := 1
	for {
		var took time.Duration
		for _, op := range ops {
			took += timeCalls(clock, op, calls)
		}
		if took >= time.Duration(len(ops))*slice || calls >= 1<<30 {
			calls = max(1, int(float64(calls)*float64(time.Duration(len(ops))*slice)/float64(max(took, 1))))
			break
		}
		calls *= 2
	}
	ns = make([][]float64, len(ops))
	for j := range ns {
		ns[j] = make([]float64, slices)
	}
	for i := 0; i < slices; i++ {
		for r := range ops {
			j := (i + r) % len(ops)
			ns[j][i] = float64(max(timeCalls(clock, ops[j], calls), 1)) / float64(calls)
		}
	}
	return ns
}

func timeCalls(clock func() time.Duration, op func(), calls int) time.Duration {
	start := clock()
	for c := 0; c < calls; c++ {
		op()
	}
	return clock() - start
}

// Quartiles returns the lower quartile, the median and the upper
// quartile of xs by nearest rank: for 4m+1 values, the (m+1)-th,
// (2m+1)-th and (3m+1)-th smallest.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s) - 1
	return s[n/4], s[n/2], s[3*n/4]
}

// Ratio pairs two ops' slice times from Interleave: it returns the
// median over slices of a's time over b's, which is b's speed-up, and
// the interquartile range of those ratios as a fraction of it.
func Ratio(a, b []float64) (median, iqr float64) {
	r := make([]float64, len(a))
	for i := range a {
		r[i] = a[i] / b[i]
	}
	q1, median, q3 := Quartiles(r)
	return median, (q3 - q1) / median
}

// AllocsPerOp returns the heap allocations of one call of op, averaged
// over runs calls after a warm-up call and rounded down, as
// testing.AllocsPerRun counts them.
func AllocsPerOp(runs int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
