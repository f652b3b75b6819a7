package experiments

import (
	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// runE3 reproduces §2.2: growing a filter from 2^12 keys by successive
// doublings. Expected shapes: quotient-filter doubling roughly doubles
// the FPR per expansion until it saturates; the scalable (chained) Bloom
// filter keeps its FPR but pays one extra probe per chain link; the
// InfiniFilter keeps FPR roughly flat with single-structure queries; a
// preallocated filter matches InfiniFilter but pays its full memory from
// the start.
func runE3(cfg Config) []*metrics.Table {
	start := cfg.n(4096)
	doublings := 6
	final := start << doublings
	keys := workload.Keys(final, 3)
	neg := workload.DisjointKeys(50000, 3)

	fprT := metrics.NewTable("E3: FPR per expansion (start n="+itoa(start)+")",
		"n", "qf_doubling", "scalable_bloom", "chained_cuckoo", "infinifilter", "prealloc_bloom")
	costT := metrics.NewTable("E3: query cost and memory at final size",
		"strategy", "query_ns", "bits/key", "chain_len")

	qf := quotient.NewForCapacity(start, 1.0/1024)
	qf.SetAutoExpand(true)
	sb, err := bloom.NewScalable(start, 1.0/1024)
	if err != nil {
		panic(err) // parameters are statically valid
	}
	cc := cuckoo.NewChained(start, 13)
	inf, err := quotient.NewInfini(12)
	if err != nil {
		panic(err) // parameters are statically valid
	}
	pre := bloom.New(final, 1.0/1024) // knows the future size

	inserted := 0
	for d := 0; d <= doublings; d++ {
		target := start << d
		for inserted < target {
			k := keys[inserted]
			qf.Insert(k)
			sb.Insert(k)
			cc.Insert(k)
			inf.Insert(k)
			pre.Insert(k)
			inserted++
		}
		fprT.AddRow(target,
			metrics.FPR(qf, neg),
			metrics.FPR(sb, neg),
			metrics.FPR(cc, neg),
			metrics.FPR(inf, neg),
			metrics.FPR(pre, neg))
	}

	probes := neg[:20000]
	addCost := func(name string, f core.Filter, chain int) {
		ns := nsPerOp(len(probes), func() {
			for _, k := range probes {
				f.Contains(k)
			}
		})
		costT.AddRow(name, ns, core.BitsPerKey(f, inserted), chain)
	}
	addCost("qf_doubling", qf, 1)
	addCost("scalable_bloom", sb, sb.Stages())
	addCost("chained_cuckoo", cc, cc.Links())
	addCost("infinifilter", inf, 1)
	addCost("prealloc_bloom", pre, 1)
	return []*metrics.Table{fprT, costT}
}
