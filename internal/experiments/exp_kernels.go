package experiments

import (
	"strconv"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// runE20 charts the Bloom-variant frontier at equal space: classic
// Bloom (space-optimal, k cache misses per probe), blocked Bloom (one
// miss, balls-into-bins FPR penalty), and two-choice blocked Bloom
// (two misses issued together, load-balanced blocks but an
// OR-of-two-blocks FPR floor of ~2x the per-block rate). Sweeping
// bits/key exposes the regimes DESIGN.md §10 derives:
//
//   - at 8-12 bits/key blocked beats choices on FPR (the convexity
//     penalty it pays is smaller than the 2x floor choices pays);
//   - as bits/key grows the per-block FPR falls fast enough that the
//     2x floor stops mattering before blocked's skewed-block tail
//     does, and the choices/blocked ratio trends toward crossover;
//   - on speed both blocked variants beat classic at every budget,
//     and batching (hash-once/probe-many, misses overlapped) pays
//     most where the probe is miss-dominated.
//
// The second table fixes the geometry (sized for n at 12 bits/key)
// and overfills it. Measured: under uniform inserts the two degrade in
// near-lockstep (choices/blocked ratio flat at ~1.3-1.4 from 1x to 2x
// load) — the OR floor, not load variance, dominates the mean, and
// two-choice balancing buys tail control (tighter per-block load
// spread, see TestChoicesBalancesLoads) rather than mean-FPR rescue.
func runE20(cfg Config) []*metrics.Table {
	n := cfg.n(1 << 20)
	keys := workload.Keys(n, 20)
	neg := workload.DisjointKeys(4*n, 20)

	frontier := metrics.NewTable("E20: Bloom variant frontier at equal bits/key (n="+strconv.Itoa(n)+")",
		"bits/key", "filter", "fpr", "fpr_vs_classic", "scalar_ns/key", "batch_ns/key", "batch_speedup")

	for _, bpk := range []float64{8, 10, 12, 16, 20, 24} {
		variants := []struct {
			name string
			f    interface {
				core.MutableFilter
				core.BatchFilter
			}
		}{
			{"bloom", bloom.NewBits(n, bpk)},
			{"blocked", bloom.NewBlocked(n, bpk)},
			{"choices", bloom.NewBlockedChoices(n, bpk)},
		}
		fpr := make([]float64, len(variants))
		var ops []func()
		for i, v := range variants {
			for _, k := range keys {
				v.f.Insert(k)
			}
			fpr[i] = metrics.FPR(v.f, neg)
			scalar, batched := probePair(v.f, neg, 256)
			ops = append(ops, scalar, batched)
		}
		// One interleave over all six probes: classic, blocked and
		// choices are compared within the same slices.
		ns := cfg.interleave(ops...)
		for i, v := range variants {
			ratio := 0.0
			if fpr[0] > 0 {
				ratio = fpr[i] / fpr[0]
			}
			speedup, _ := metrics.Ratio(ns[2*i], ns[2*i+1])
			frontier.AddRow(bpk, v.name, fpr[i], ratio, perKey(ns[2*i], 256), perKey(ns[2*i+1], 256), speedup)
		}
	}

	overfill := metrics.NewTable("E20: overfill at fixed geometry (sized for n at 12 bits/key)",
		"load_factor", "filter", "fpr", "fpr_vs_blocked", "fill_ratio")
	extra := workload.Keys(2*n, 21)
	for _, load := range []float64{1.0, 1.25, 1.5, 2.0} {
		m := int(load * float64(n))
		blockedFPR := 0.0
		for _, v := range []struct {
			name string
			f    interface {
				core.MutableFilter
				FillRatio() float64
			}
		}{
			{"blocked", bloom.NewBlocked(n, 12)},
			{"choices", bloom.NewBlockedChoices(n, 12)},
		} {
			for _, k := range extra[:m] {
				v.f.Insert(k)
			}
			fpr := metrics.FPR(v.f, neg)
			if v.name == "blocked" {
				blockedFPR = fpr
			}
			ratio := 0.0
			if blockedFPR > 0 {
				ratio = fpr / blockedFPR
			}
			overfill.AddRow(load, v.name, fpr, ratio, v.f.FillRatio())
		}
	}

	return []*metrics.Table{frontier, overfill}
}
