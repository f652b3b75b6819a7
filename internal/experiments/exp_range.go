package experiments

import (
	"sort"
	"strconv"

	"beyondbloom/internal/arf"
	"beyondbloom/internal/core"
	"beyondbloom/internal/grafite"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/proteus"
	"beyondbloom/internal/rosetta"
	"beyondbloom/internal/snarf"
	"beyondbloom/internal/surf"
	"beyondbloom/internal/workload"
)

// runE6 reproduces §2.5's range-filter comparison. Expected shapes:
// Rosetta strong at short ranges, degrading quickly as ranges grow;
// Grafite flat near its ε for all supported lengths and robust under
// key-query correlation; SuRF in between, with its space blowing up on
// adversarial shared-prefix keys; SNARF strong on a smooth key CDF;
// trained ARF near-perfect on repeated workloads.
func runE6(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n, 6)
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	anyIn := func(lo, hi uint64) bool {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
		return i < len(sorted) && sorted[i] <= hi
	}
	emptyRanges := func(length uint64, m int, seed int64) [][2]uint64 {
		qs := workload.UniformRanges(2*m, length, ^uint64(0)-2*length-2, seed)
		var out [][2]uint64
		for _, q := range qs {
			if !anyIn(q.Lo, q.Hi) {
				out = append(out, [2]uint64{q.Lo, q.Hi})
				if len(out) == m {
					break
				}
			}
		}
		return out
	}

	// Filters at comparable budgets (~16-20 bits/key).
	sample := workload.UniformRanges(1000, 256, ^uint64(0)-512, 60)
	filters := []struct {
		name string
		f    core.RangeFilter
	}{
		{"surf-real8", surf.New(keys, surf.SuffixReal, 8)},
		{"rosetta", buildRosetta(n, keys)},
		{"grafite", grafite.New(keys, 16, 1.0/256)},
		{"snarf", snarf.New(keys, 16)},
		{"proteus", proteus.New(keys, sample, 18)},
	}

	fprT := metrics.NewTable("E6a: empty-range FPR vs range length (n="+strconv.Itoa(n)+")",
		"filter", "len=1", "len=16", "len=256", "len=4096", "len=65536", "bits/key")
	lengths := []uint64{1, 16, 256, 4096, 65536}
	queriesPerLen := cfg.n(3000)
	for _, fl := range filters {
		row := []any{fl.name}
		for _, L := range lengths {
			row = append(row, metrics.RangeFPR(fl.f, emptyRanges(L, queriesPerLen, int64(L))))
		}
		row = append(row, float64(fl.f.SizeBits())/float64(n))
		fprT.AddRow(row...)
	}

	// ARF separately: it needs training on the workload.
	arfF := arf.New(keys, n/2)
	trainQ := emptyRanges(256, queriesPerLen, 61)
	for _, q := range trainQ {
		if arfF.MayContainRange(q[0], q[1]) {
			arfF.Adapt(q[0], q[1])
		}
	}
	fprT.AddRow("arf(trained len=256)", "-", "-",
		metrics.RangeFPR(arfF, trainQ), "-", "-",
		float64(arfF.SizeBits())/float64(n))

	// E6b: correlated queries (gap 2 past a key).
	corT := metrics.NewTable("E6b: correlated empty queries (gap=2, len=16)",
		"filter", "fpr_uniform", "fpr_correlated")
	cors := workload.CorrelatedRanges(keys, 4*queriesPerLen, 16, 2, 63)
	var corEmpty [][2]uint64
	for _, q := range cors {
		if !anyIn(q.Lo, q.Hi) {
			corEmpty = append(corEmpty, [2]uint64{q.Lo, q.Hi})
		}
	}
	uni := emptyRanges(16, queriesPerLen, 64)
	for _, fl := range filters {
		corT.AddRow(fl.name, metrics.RangeFPR(fl.f, uni), metrics.RangeFPR(fl.f, corEmpty))
	}

	// E6c: adversarial shared-prefix keys blow up SuRF's space.
	advT := metrics.NewTable("E6c: SuRF space under adversarial keys",
		"key_set", "surf_bits/key", "grafite_bits/key")
	advKeys := workload.AdversarialPrefixKeys(n, 66)
	surfRnd := surf.New(keys, surf.SuffixNone, 0)
	surfAdv := surf.New(advKeys, surf.SuffixNone, 0)
	grafRnd := grafite.New(keys, 16, 1.0/256)
	grafAdv := grafite.New(advKeys, 16, 1.0/256)
	advT.AddRow("random", float64(surfRnd.SizeBits())/float64(n), float64(grafRnd.SizeBits())/float64(n))
	advT.AddRow("adversarial-prefix", float64(surfAdv.SizeBits())/float64(n), float64(grafAdv.SizeBits())/float64(n))

	return []*metrics.Table{fprT, corT, advT}
}

func buildRosetta(n int, keys []uint64) *rosetta.Filter {
	f := rosetta.New(n, 20, 16)
	for _, k := range keys {
		f.Insert(k)
	}
	return f
}
