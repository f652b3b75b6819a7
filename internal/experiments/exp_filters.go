package experiments

import (
	"math"
	"strconv"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/prefixfilter"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/ribbon"
	"beyondbloom/internal/rsqf"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/xorfilter"
)

// runE1 reproduces §2's space claims: bits/key against the lower bound
// lg(1/ε) for every filter class. Expected shape: Bloom pays 1.44×, the
// fingerprint filters pay an additive 2-3 bits (so Bloom wins only at
// large ε), XOR pays 1.23×, ribbon ≈1.05×.
func runE1(cfg Config) []*metrics.Table {
	// Snap n to ~93% of a power of two: table filters (quotient, cuckoo)
	// round capacity up to 2^q slots, and comparing space at an
	// arbitrary n would charge them for unused slack rather than their
	// structural overhead.
	n := cfg.n(200000)
	pow := 1
	for pow*2 <= n {
		pow *= 2
	}
	n = pow * 93 / 100 * 2
	keys := workload.Keys(n, 1)
	neg := workload.DisjointKeys(n*2, 1)
	t := metrics.NewTable("E1: space vs false-positive rate (n="+strconv.Itoa(n)+")",
		"filter", "target_eps", "bits/key", "lower_bound", "overhead_x", "measured_fpr")

	for _, logEps := range []uint{4, 8, 12, 16} {
		eps := 1.0 / float64(uint64(1)<<logEps)
		lower := float64(logEps)

		bf := bloom.New(n, eps)
		for _, k := range keys {
			bf.Insert(k)
		}
		addE1Row(t, "bloom", eps, bf, n, lower, neg)

		qf := quotient.NewForCapacity(n, eps)
		for _, k := range keys {
			qf.Insert(k)
		}
		addE1Row(t, "quotient(3bit)", eps, qf, n, lower, neg)

		// The RSQF block layout is the paper's 2.125-metadata-bit number.
		rq := rsqf.New(keys, logEps)
		addE1Row(t, "quotient(rsqf)", eps, rq, n, lower, neg)

		cf := cuckoo.NewForEpsilon(n, eps)
		for _, k := range keys {
			cf.Insert(k)
		}
		addE1Row(t, "cuckoo", eps, cf, n, lower, neg)

		pf := prefixfilter.New(n, logEps+5)
		for _, k := range keys {
			pf.Insert(k)
		}
		addE1Row(t, "prefix", eps, pf, n, lower, neg)

		if logEps <= 16 {
			xf, err := xorfilter.New(keys, logEps)
			if err == nil {
				addE1Row(t, "xor", eps, xf, n, lower, neg)
			}
			rf, err := ribbon.New(keys, logEps)
			if err == nil {
				addE1Row(t, "ribbon", eps, rf, n, lower, neg)
			}
		}
	}
	return []*metrics.Table{t}
}

func addE1Row(t *metrics.Table, name string, eps float64, f core.Filter, n int, lower float64, neg []uint64) {
	bpk := core.BitsPerKey(f, n)
	t.AddRow(name, eps, bpk, lower, bpk/math.Max(lower, 1), metrics.FPR(f, neg))
}

// runE2 reproduces §2.1's mechanics story: quotient (Robin Hood shifting)
// and cuckoo (kicking) both slow down as occupancy rises; cuckoo inserts
// start failing near 95%. The lookup and batch columns probe the
// inserted keys through Contains and through ContainsBatch in 256-key
// batches — hash-once/probe-many lookups whose advantage grows with the
// filter's working set (see DESIGN.md) — all four probes interleaved.
func runE2(cfg Config) []*metrics.Table {
	n := cfg.n(200000)
	keys := workload.Keys(n+n/2, 2)
	t := metrics.NewTable("E2: dynamic filter ops/sec vs occupancy",
		"filter", "load", "insert_Mops", "lookup_Mops", "batch_Mops", "batch_speedup")

	// Quotient filter sized so n keys reach ~0.94 load.
	q := uint(1)
	for float64(uint64(1)<<q)*0.94 < float64(n) {
		q++
	}
	filters := []struct {
		name string
		f    interface {
			core.MutableFilter
			core.BatchFilter
		}
	}{{"quotient", quotient.New(q, 10)}, {"cuckoo", cuckoo.New(n, 12)}}
	start := 0
	for _, band := range []float64{0.5, 0.75, 0.9, 0.95} {
		target := min(int(band*float64(n)), len(keys))
		count := target - start
		if count <= 0 {
			continue
		}
		var ins []float64
		var ops []func()
		probes, batch := keys[:count], min(256, count)
		for _, fl := range filters {
			ins = append(ins, opsPerSec(count, func() {
				for _, k := range keys[start:target] {
					if fl.f.Insert(k) != nil {
						break
					}
				}
			})/1e6)
			scalar, batched := probePair(fl.f, probes, batch)
			ops = append(ops, scalar, batched)
		}
		ns := cfg.interleave(ops...)
		for i, fl := range filters {
			speedup, _ := metrics.Ratio(ns[2*i], ns[2*i+1])
			t.AddRow(fl.name, band, ins[i], 1e3/perKey(ns[2*i], batch), 1e3/perKey(ns[2*i+1], batch), speedup)
		}
		start = target
	}
	return []*metrics.Table{t}
}

// runE8 reproduces §2.7: static filters' build cost, query cost and
// space. Expected: ribbon smallest, xor close, bloom largest; ribbon
// queries slower than xor.
func runE8(cfg Config) []*metrics.Table {
	n := cfg.n(500000)
	keys := workload.Keys(n, 8)
	neg := workload.DisjointKeys(n, 8)
	t := metrics.NewTable("E8: static filters (n="+strconv.Itoa(n)+", 8-bit fingerprints)",
		"filter", "bits/key", "build_ns/key", "query_ns/op", "measured_fpr")

	var bf *bloom.Filter
	buildBloom := nsPerOp(n, func() {
		bf = bloom.New(n, 1.0/256)
		for _, k := range keys {
			bf.Insert(k)
		}
	})
	var xf *xorfilter.Filter
	buildXor := nsPerOp(n, func() {
		xf, _ = xorfilter.New(keys, 8)
	})
	var rf *ribbon.Filter
	buildRibbon := nsPerOp(n, func() {
		rf, _ = ribbon.New(keys, 8)
	})
	batch := min(256, len(neg))
	ns := cfg.interleave(lookups(bf, cycle(neg, batch)), lookups(xf, cycle(neg, batch)), lookups(rf, cycle(neg, batch)))
	t.AddRow("bloom", core.BitsPerKey(bf, n), buildBloom, perKey(ns[0], batch), metrics.FPR(bf, neg))
	t.AddRow("xor", core.BitsPerKey(xf, n), buildXor, perKey(ns[1], batch), metrics.FPR(xf, neg))
	t.AddRow("ribbon", core.BitsPerKey(rf, n), buildRibbon, perKey(ns[2], batch), metrics.FPR(rf, neg))
	return []*metrics.Table{t}
}
