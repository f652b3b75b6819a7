package main

import (
	"fmt"
	"math"
	"sort"

	wl "beyondbloom/internal/workload"
)

// median returns the middle of xs (mean of the middle two for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recorded pools latency samples (ns) into the repository's
// nearest-rank recorder, the one E21 reports its percentiles from. The
// samples are copied, not reordered.
func recorded(samples ...[]int64) *wl.LatencyRecorder {
	var r wl.LatencyRecorder
	for _, s := range samples {
		r.RecordAll(s)
	}
	return &r
}

// sliceMedians returns the median latency (ns) of each one-second
// slice of the measure phase. Empty slices (no request completed) are
// skipped.
func sliceMedians(slices [][]int64) []float64 {
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, float64(recorded(s).Percentile(50)))
		}
	}
	return per
}

// calmest is the slice-robust estimator of the timed end-to-end
// metrics: of the per-slice values it returns the one ranked a tenth of
// the way down from the best (the third best of twenty). On the
// reference box interference only ever slows a slice, and it comes as
// level shifts of 10 s to 20 min that a median over slices follows all
// the way; over ten-seed sets that straddled such a shift the calmest
// tenth spread up to 40 % less (README.md, "Results at seed"). Taking
// the third best rather than the best keeps one lucky slice from
// setting the number. It returns 0 for no slices.
func calmest(perSlice []float64, higherIsBetter bool) float64 {
	if len(perSlice) == 0 {
		return 0
	}
	s := append([]float64(nil), perSlice...)
	sort.Float64s(s)
	rank := len(s) / 10
	if higherIsBetter {
		rank = len(s) - 1 - rank
	}
	return s[rank]
}

// tailLevels are the percentiles a latency report may quote, lowest
// first; one sample in oneIn lies beyond each.
var tailLevels = []struct {
	name  string
	oneIn int
}{{"p90", 10}, {"p99", 100}, {"p999", 1000}, {"p9999", 10000}}

// supportedTail returns the highest percentile (name, and p in
// [0, 100]) that still has at least ten of n samples beyond it — the
// one a report may quote next to the median — or "" when even p90 has
// fewer.
func supportedTail(n int) (name string, p float64) {
	for _, l := range tailLevels {
		if n/l.oneIn >= 10 {
			name, p = l.name, 100-100/float64(l.oneIn)
		}
	}
	return name, p
}

// tailOrZero is the percentile with one sample in oneIn beyond it when
// at least ten are, and 0 otherwise: a fixed-name metric such as
// loadgen.p999_us reads 0 on a run too short to support it.
func tailOrZero(r *wl.LatencyRecorder, oneIn int) float64 {
	if r.Count()/oneIn < 10 {
		return 0
	}
	return float64(r.Percentile(100 - 100/float64(oneIn)))
}

// coefVar is the standard deviation of xs over its mean.
func coefVar(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of its median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method) — the
// spread the acceptance rule compares to a metric's bound. It needs
// two values; with fewer it is 0.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func us(ns float64) float64 { return ns / 1e3 }

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
