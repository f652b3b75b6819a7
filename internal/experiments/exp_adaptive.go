package experiments

import (
	"strconv"

	"beyondbloom/internal/adaptive"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// runE4 reproduces §2.3: a static filter pays for the same false
// positive on every repetition; adaptive filters fix each discovered
// false positive, so an adversarial repeat attack costs O(1) per
// distinct negative, and total false positives over any query sequence
// stay O(εn).
func runE4(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n, 4)

	staticCF := cuckoo.New(n, 10)
	adaptCF := cuckoo.NewAdaptive(n, 10)
	adaptQF := adaptive.NewQF(sizeQ(n), 10, adaptive.ExtendUntilDistinct)
	for _, k := range keys {
		staticCF.Insert(k)
		adaptCF.Insert(k)
		adaptQF.Insert(k)
	}

	// (a) Adversarial repeat: find FPs of the static filter, replay each
	// many times against every filter. The adaptive filters adapt on
	// each discovered FP (as their host application would).
	neg := workload.DisjointKeys(500000, 4)
	var attack []uint64
	for _, k := range neg {
		if staticCF.Contains(k) || adaptCF.Contains(k) || adaptQF.Contains(k) {
			attack = append(attack, k)
			if len(attack) == 50 {
				break
			}
		}
	}
	const repeats = 1000
	advT := metrics.NewTable("E4a: adversarial repeat attack ("+strconv.Itoa(len(attack))+" FPs x "+strconv.Itoa(repeats)+" repeats)",
		"filter", "false_positives", "fp_per_repeat")
	countFPs := func(contains func(uint64) bool, adapt func(uint64)) int {
		total := 0
		for r := 0; r < repeats; r++ {
			for _, k := range attack {
				if contains(k) {
					total++
					if adapt != nil {
						adapt(k)
					}
				}
			}
		}
		return total
	}
	fpStatic := countFPs(staticCF.Contains, nil)
	fpACF := countFPs(adaptCF.Contains, adaptCF.Adapt)
	fpAQF := countFPs(adaptQF.Contains, adaptQF.Adapt)
	// "To adapt or to cache?" (Bender et al.): instead of fixing the
	// filter, cache recently-seen false positives. A big-enough cache
	// also stops a repeat attack; its weakness is bounded size against
	// unbounded distinct FPs. Here the attack cycles through more
	// distinct FPs than the 16 slots hold, so the FIFO evicts each one
	// before it returns, and part (b) shows the same churn on a long
	// tail.
	var cache fifoCache
	fpCache := countFPs(func(k uint64) bool {
		return !cache.has(k) && staticCF.Contains(k)
	}, cache.add)
	denom := float64(repeats)
	advT.AddRow("static_cuckoo", fpStatic, float64(fpStatic)/denom)
	advT.AddRow("static+fp_cache16", fpCache, float64(fpCache)/denom)
	advT.AddRow("adaptive_cuckoo", fpACF, float64(fpACF)/denom)
	advT.AddRow("adaptive_qf", fpAQF, float64(fpAQF)/denom)

	// (b) Zipfian negative queries (skewed repetition, §2.3's motivating
	// distribution).
	zipfT := metrics.NewTable("E4b: Zipfian negative workload",
		"filter", "false_positives", "fp_rate")
	zneg := workload.DisjointKeys(20000, 44)
	idx := workload.Zipf(200000, len(zneg), 1.2, 45)
	zipfRun := func(contains func(uint64) bool, adapt func(uint64)) int {
		total := 0
		for _, i := range idx {
			k := zneg[i]
			if contains(k) {
				total++
				if adapt != nil {
					adapt(k)
				}
			}
		}
		return total
	}
	zStatic := zipfRun(staticCF.Contains, nil)
	// The FP cache handles the hot head but churns on the long tail of
	// distinct negatives — the bounded-cache weakness of [11]'s
	// comparison.
	var zCacheSet fifoCache
	zCache := zipfRun(func(k uint64) bool {
		return !zCacheSet.has(k) && staticCF.Contains(k)
	}, zCacheSet.add)
	zACF := zipfRun(adaptCF.Contains, adaptCF.Adapt)
	zAQF := zipfRun(adaptQF.Contains, adaptQF.Adapt)
	m := float64(len(idx))
	zipfT.AddRow("static_cuckoo", zStatic, float64(zStatic)/m)
	zipfT.AddRow("static+fp_cache16", zCache, float64(zCache)/m)
	zipfT.AddRow("adaptive_cuckoo", zACF, float64(zACF)/m)
	zipfT.AddRow("adaptive_qf", zAQF, float64(zAQF)/m)
	return []*metrics.Table{advT, zipfT}
}

// fifoCache is the bounded false-positive cache of "To adapt or to
// cache?": the last 16 keys it was told about, in a ring that evicts
// the oldest first, so every run of E4 replays the same way.
type fifoCache struct {
	keys [16]uint64
	n    int // keys added so far; the next one replaces keys[n%16]
}

func (c *fifoCache) has(k uint64) bool {
	for _, x := range c.keys[:min(c.n, len(c.keys))] {
		if x == k {
			return true
		}
	}
	return false
}

func (c *fifoCache) add(k uint64) {
	c.keys[c.n%len(c.keys)] = k
	c.n++
}

func sizeQ(n int) uint {
	q := uint(1)
	for float64(uint64(1)<<q)*0.9 < float64(n) {
		q++
	}
	return q
}
