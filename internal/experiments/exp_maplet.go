package experiments

import (
	"strconv"

	"beyondbloom/internal/bloomier"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
)

// runE5 reproduces §2.4's maplet result-size taxonomy: Bloomier has
// PRS = NRS = 1 (but a static key set); quotient/cuckoo maplets have
// PRS = 1+ε and NRS = ε with full dynamism; the SlimDB-style resolving
// maplet buys PRS = 1 with an auxiliary dictionary.
func runE5(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n, 5)
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i % 251)
	}
	neg := workload.DisjointKeys(n, 5)
	const eps = 1.0 / 256

	t := metrics.NewTable("E5: maplet result sizes (n="+strconv.Itoa(n)+", eps=1/256, 8-bit values)",
		"maplet", "PRS", "NRS", "wrong_value_rate", "bits/key", "dynamic")

	measure := func(name string, get func(uint64) []uint64, bits int, dynamic string) {
		posTotal, wrong := 0, 0
		for i, k := range keys {
			vals := get(k)
			posTotal += len(vals)
			found := false
			for _, v := range vals {
				if v == values[i] {
					found = true
				}
			}
			if !found {
				wrong++
			}
		}
		negTotal := 0
		for _, k := range neg {
			negTotal += len(get(k))
		}
		t.AddRow(name,
			float64(posTotal)/float64(n),
			float64(negTotal)/float64(len(neg)),
			float64(wrong)/float64(n),
			float64(bits)/float64(n),
			dynamic)
	}

	bl, err := bloomier.New(keys, values, 8, 8)
	if err == nil {
		measure("bloomier", bl.Get, bl.SizeBits(), "values only")
	}

	qm := quotient.NewMapletForCapacity(n, eps, 8)
	for i, k := range keys {
		qm.Put(k, values[i])
	}
	measure("quotient", qm.Get, qm.SizeBits(), "yes")

	cm := cuckoo.NewMaplet(n, 11, 8)
	for i, k := range keys {
		cm.Put(k, values[i])
	}
	measure("cuckoo", cm.Get, cm.SizeBits(), "yes")

	rm := quotient.NewResolvingMaplet(n, eps, 8)
	for i, k := range keys {
		rm.Put(k, values[i])
	}
	measure("resolving(slimdb)", rm.Get, rm.SizeBits(), "yes")

	return []*metrics.Table{t}
}
