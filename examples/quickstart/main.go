// Quickstart: the "modern filter API" tour the tutorial advocates —
// build each filter class over the same key set and exercise the
// capability that distinguishes it: membership, deletion, counting,
// key-value association, expansion, adaptivity, and range emptiness.
package main

import (
	"fmt"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/grafite"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/xorfilter"
)

func main() {
	keys := workload.Keys(100000, 1)
	absent := workload.DisjointKeys(100000, 1)

	// 1. Classic semi-dynamic membership: Bloom filter.
	bf := bloom.New(len(keys), 0.01)
	for _, k := range keys {
		bf.Insert(k)
	}
	fmt.Printf("bloom:    %5.2f bits/key, fpr=%.4f (target 0.01)\n",
		core.BitsPerKey(bf, len(keys)), fpr(bf, absent))

	// 2. Static: XOR filter, built over a known set.
	xf, err := xorfilter.New(keys, 10)
	must(err)
	fmt.Printf("xor:      %5.2f bits/key, fpr=%.4f (target 2^-10)\n",
		core.BitsPerKey(xf, len(keys)), fpr(xf, absent))

	// 3. Dynamic with deletes: quotient filter.
	qf := quotient.NewForCapacity(len(keys), 0.01)
	for _, k := range keys {
		must(qf.Insert(k))
	}
	must(qf.Delete(keys[0]))
	fmt.Printf("quotient: %5.2f bits/key, deleted a key, contains=%v\n",
		core.BitsPerKey(qf, len(keys)), qf.Contains(keys[0]))

	// 4. Counting (multisets): the CQF counts a million-fold key in a
	// handful of slots.
	cqf := quotient.NewCountingForCapacity(1000, 0.001)
	must(cqf.Add(7, 1_000_000))
	must(cqf.Add(8, 2))
	fmt.Printf("cqf:      count(7)=%d count(8)=%d count(9)=%d\n",
		cqf.Count(7), cqf.Count(8), cqf.Count(9))

	// 5. Maplet: associate a small value with each key.
	m := quotient.NewMapletForCapacity(len(keys), 1.0/256, 8)
	for i, k := range keys[:1000] {
		must(m.Put(k, uint64(i%251)))
	}
	fmt.Printf("maplet:   Get(keys[42]) = %v (PRS ≈ 1+ε)\n", m.Get(keys[42]))

	// 6. Expansion: an InfiniFilter grows 64x with a stable FPR.
	inf, err := quotient.NewInfini(8)
	must(err)
	for _, k := range keys[:50000] {
		must(inf.Insert(k))
	}
	fmt.Printf("infini:   %d expansions, fpr=%.5f, no false negatives=%v\n",
		inf.Expansions(), fpr(inf, absent), allContained(inf, keys[:50000]))

	// 7. Adaptivity: a discovered false positive never fires again.
	acf := cuckoo.NewAdaptive(len(keys), 10)
	for _, k := range keys {
		must(acf.Insert(k))
	}
	for _, k := range absent {
		if acf.Contains(k) {
			fmt.Printf("adaptive: found FP %d; after Adapt contains=%v\n",
				k, func() bool { acf.Adapt(k); return acf.Contains(k) }())
			break
		}
	}

	// 8. Range emptiness: Grafite answers BETWEEN-style probes.
	g := grafite.New(keys, 16, 0.01)
	lo := keys[3] - 2
	fmt.Printf("grafite:  range around a key -> %v; far empty range -> %v\n",
		g.MayContainRange(lo, lo+10), g.MayContainRange(absent[0], absent[0]+10))

	// 9. Cuckoo filter: dynamic, deletable, duplicate-friendly.
	cf := cuckoo.New(1000, 12)
	must(cf.Insert(5))
	must(cf.Insert(5))
	must(cf.Delete(5))
	fmt.Printf("cuckoo:   after 2 inserts + 1 delete of key 5: contains=%v\n", cf.Contains(5))
}

func fpr(f core.Filter, absent []uint64) float64 {
	fp := 0
	for _, k := range absent {
		if f.Contains(k) {
			fp++
		}
	}
	return float64(fp) / float64(len(absent))
}

func allContained(f core.Filter, keys []uint64) bool {
	for _, k := range keys {
		if !f.Contains(k) {
			return false
		}
	}
	return true
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
