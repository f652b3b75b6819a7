package experiments

import (
	"strconv"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/dleft"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// runE7 reproduces §2.6: counting filters on skewed multisets. Expected
// shapes: the counting Bloom filter's fixed counters saturate under skew
// (and lose delete fidelity); d-left uses roughly half a CBF's space;
// the spectral filter and the CQF absorb skew with variable-size
// counters, the CQF's space scaling with distinct keys rather than total
// multiplicity.
func runE7(cfg Config) []*metrics.Table {
	distinct := cfg.n(50000)
	total := distinct * 20
	keys := workload.Keys(distinct, 7)

	spaceT := metrics.NewTable("E7a: counting filters under Zipf skew ("+strconv.Itoa(distinct)+" distinct, "+strconv.Itoa(total)+" total)",
		"filter", "zipf_s", "bits/distinct_key", "wrong_count_rate", "failed_inserts", "saturations")
	for _, s := range []float64{1.1, 1.5, 2.0} {
		ms := workload.ZipfMultiset(keys, total, s, 70+int64(s*10))

		cbf := bloom.NewCounting(distinct, 1.0/256, 4)
		spec := bloom.NewSpectral(distinct, 1.0/256, 2)
		dl := dleft.New(distinct, 12, 8)
		// The CQF needs slots for counter digits on top of the distinct
		// keys; grow until the multiset fits (real deployments size for
		// the expected slot demand up front).
		cqf, cqfInserted := buildCQF(distinct, ms)

		// dleft is not resizable (a §2.6 limitation): failures count.
		dlFailed := 0
		inserted := map[uint64]bool{}
		for k, c := range ms {
			cbf.Add(k, c)
			spec.Add(k, c)
			if dl.Add(k, c) != nil {
				dlFailed++
			} else {
				inserted[k] = true
			}
		}
		// Accuracy over keys the filter actually holds.
		over := func(count func(uint64) uint64, holds func(uint64) bool) float64 {
			wrong, n := 0, 0
			for k, want := range ms {
				if !holds(k) {
					continue
				}
				n++
				if count(k) != want {
					wrong++
				}
			}
			if n == 0 {
				return 0
			}
			return float64(wrong) / float64(n)
		}
		all := func(uint64) bool { return true }
		nd := float64(len(ms))
		spaceT.AddRow("counting_bloom", s, float64(cbf.SizeBits())/nd, over(cbf.Count, all), 0, cbf.Saturations())
		spaceT.AddRow("spectral", s, float64(spec.SizeBits())/nd, over(spec.Count, all), 0, 0)
		spaceT.AddRow("dleft", s, float64(dl.SizeBits())/nd,
			over(dl.Count, func(k uint64) bool { return inserted[k] }), dlFailed, 0)
		spaceT.AddRow("cqf", s, float64(cqf.SizeBits())/nd,
			over(cqf.Count, func(k uint64) bool { return cqfInserted[k] }), len(ms)-len(cqfInserted), 0)
	}

	// E7b: the saturation/delete hazard. Insert a heavy key into narrow
	// CBF counters, then delete it: the count sticks (undercount hazard
	// for the error bound), while the CQF tracks exactly.
	hazT := metrics.NewTable("E7b: delete fidelity after saturation",
		"filter", "count_after_insert_100", "count_after_delete_100")
	cbf := bloom.NewCounting(1000, 1.0/256, 4)
	cqf := quotient.NewCountingForCapacity(1000, 1.0/256)
	cbf.Add(42, 100)
	cqf.Add(42, 100)
	a1, b1 := cbf.Count(42), cqf.Count(42)
	cbf.Remove(42, 100)
	cqf.Remove(42, 100)
	hazT.AddRow("counting_bloom(4bit)", a1, cbf.Count(42))
	hazT.AddRow("cqf", b1, cqf.Count(42))
	return []*metrics.Table{spaceT, hazT}
}

// buildCQF sizes a counting quotient filter with enough slots for the
// multiset's counter encoding, growing on overflow. Returns the filter
// and the set of keys it holds (all of them once a size fits).
func buildCQF(distinct int, ms map[uint64]uint64) (*quotient.Counting, map[uint64]bool) {
	q := uint(1)
	for float64(uint64(1)<<q)*0.95 < float64(distinct) {
		q++
	}
	for ; ; q++ {
		cqf := quotient.NewCounting(q, 8)
		inserted := make(map[uint64]bool, len(ms))
		ok := true
		for k, c := range ms {
			if cqf.Add(k, c) != nil {
				ok = false
				break
			}
			inserted[k] = true
		}
		if ok {
			return cqf, inserted
		}
	}
}
