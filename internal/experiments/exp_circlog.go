package experiments

import (
	"beyondbloom/internal/circlog"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// runE15 reproduces §3.1's circular-log storyline: a log-structured
// engine whose in-memory maplet must support updates, deletes, AND
// expansion ("no system that we are aware of uses maplets that meet
// these requirements"). The expandable quotient maplet meets them: the
// table tracks lookup I/O, GC write amplification, maplet memory and
// expansion count as the store grows and churns.
func runE15(cfg Config) []*metrics.Table {
	t := metrics.NewTable("E15: circular-log engine with an expandable maplet",
		"phase", "live_keys", "maplet_KiB", "expansions", "io_per_hit", "io_per_miss", "write_amp")
	s := circlog.New()
	n := cfg.n(100000)
	keys := workload.Keys(n, 15)
	miss := workload.DisjointKeys(cfg.n(20000), 15)

	measure := func(phase string, logicalWrites int) {
		before := s.Device().Reads
		// Probe keys from the tail half, which stays live through every
		// phase (phase 3 deletes the first half).
		probes := keys[n-min(5000, n/2):]
		for _, k := range probes {
			s.Get(k)
		}
		ioHit := float64(s.Device().Reads-before) / float64(len(probes))
		before = s.Device().Reads
		for _, k := range miss {
			s.Get(k)
		}
		ioMiss := float64(s.Device().Reads-before) / float64(len(miss))
		wa := 0.0
		if logicalWrites > 0 {
			wa = float64(s.Device().Writes) / float64(logicalWrites)
		}
		t.AddRow(phase, s.Live(), float64(s.MapletBits())/8/1024, s.Expansions(), ioHit, ioMiss, wa)
	}

	// Phase 1: initial load (expansion under growth).
	for i, k := range keys {
		s.Put(k, uint64(i))
	}
	measure("load", n)

	// Phase 2: heavy update churn (GC + maplet re-pointing).
	writes := n
	for round := 0; round < 4; round++ {
		for _, k := range keys[:n/2] {
			s.Put(k, k^uint64(round))
			writes++
		}
	}
	measure("update_churn", writes)

	// Phase 3: delete half (tombstones + GC shrink).
	for _, k := range keys[:n/2] {
		s.Delete(k)
	}
	s.GC()
	measure("after_deletes", writes)
	return []*metrics.Table{t}
}
