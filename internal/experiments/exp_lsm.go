package experiments

import (
	"strconv"

	"beyondbloom/internal/core"
	"beyondbloom/internal/grafite"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/rosetta"
	"beyondbloom/internal/surf"
	"beyondbloom/internal/workload"
)

// runE10 reproduces §3.1's point-lookup story: per-file Bloom filters
// skip files; Monkey's allocation turns the miss cost from O(ε·levels)
// into O(ε); a global maplet (Chucky/SlimDB) gets hits in ~1 I/O and
// misses in ~0.
func runE10(cfg Config) []*metrics.Table {
	n := cfg.n(200000)
	keys := workload.Keys(n, 10)
	missQ := workload.DisjointKeys(cfg.n(50000), 10)
	hitQ := keys[:cfg.n(50000)]

	t := metrics.NewTable("E10: LSM point lookups (n="+strconv.Itoa(n)+", T=4)",
		"policy", "levels", "io_per_miss", "io_per_hit", "filter_MiB", "probes_per_miss")
	for _, pc := range []struct {
		name   string
		policy lsm.FilterPolicy
	}{
		{"none", lsm.PolicyNone},
		{"bloom_uniform", lsm.PolicyBloom},
		{"monkey", lsm.PolicyMonkey},
		{"maplet(chucky)", lsm.PolicyMaplet},
	} {
		s := lsm.New(lsm.Options{Policy: pc.policy, MemtableSize: 1024, SizeRatio: 4, BitsPerKey: 10})
		for i, k := range keys {
			s.Put(k, uint64(i))
		}
		s.Flush()

		probesBefore := s.FilterProbes()
		before := s.Device().Reads()
		for _, k := range missQ {
			s.Get(k)
		}
		ioMiss := float64(s.Device().Reads()-before) / float64(len(missQ))
		probesMiss := float64(s.FilterProbes()-probesBefore) / float64(len(missQ))

		before = s.Device().Reads()
		for _, k := range hitQ {
			s.Get(k)
		}
		ioHit := float64(s.Device().Reads()-before) / float64(len(hitQ))

		t.AddRow(pc.name, s.Levels(), ioMiss, ioHit,
			float64(s.FilterMemoryBits())/8/1024/1024, probesMiss)
	}

	// E10b: compaction policies (§3.1's Dostoevsky story): tiering and
	// lazy leveling trade read cost for write amplification. Reads use
	// Monkey filters so the comparison reflects filtered misses.
	ct := metrics.NewTable("E10b: compaction policy trade-offs (Monkey filters)",
		"compaction", "write_amp", "runs", "io_per_miss", "io_per_hit")
	dataBlocks := (n + 127) / 128
	for _, cc := range []struct {
		name string
		pol  lsm.CompactionPolicy
	}{
		{"leveling", lsm.Leveling},
		{"tiering", lsm.Tiering},
		{"lazy_leveling", lsm.LazyLeveling},
	} {
		s := lsm.New(lsm.Options{Policy: lsm.PolicyMonkey, MemtableSize: 1024, SizeRatio: 4, Compaction: cc.pol})
		for i, k := range keys {
			s.Put(k, uint64(i))
		}
		s.Flush()
		writeAmp := float64(s.Device().Writes()) / float64(dataBlocks)
		before := s.Device().Reads()
		for _, k := range missQ {
			s.Get(k)
		}
		ioMiss := float64(s.Device().Reads()-before) / float64(len(missQ))
		before = s.Device().Reads()
		for _, k := range hitQ {
			s.Get(k)
		}
		ioHit := float64(s.Device().Reads()-before) / float64(len(hitQ))
		ct.AddRow(cc.name, writeAmp, s.Runs(), ioMiss, ioHit)
	}
	return []*metrics.Table{t, ct}
}

// runE11 reproduces §3.1 + §2.5: range filters cut the I/O of empty
// range scans ("SELECT ... BETWEEN"). Expected: every range filter
// eliminates most empty-scan I/O, with Grafite/SuRF strongest at long
// ranges and Rosetta at short ones.
func runE11(cfg Config) []*metrics.Table {
	n := cfg.n(200000)
	// Keys on a sparse sequential 2^36 grid: gaps are enormous compared
	// to the scan length, and mid-gap probes sit beyond the SuRF trie's
	// truncation resolution, so every range filter has a fair shot at
	// proving emptiness.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) << 36
	}

	builders := []struct {
		name  string
		build lsm.RangeFilterBuilder
	}{
		{"none", nil},
		{"surf-real8", func(ks []uint64) core.RangeFilter {
			return surf.New(ks, surf.SuffixReal, 8)
		}},
		{"rosetta", func(ks []uint64) core.RangeFilter {
			f := rosetta.New(len(ks), 20, 16)
			for _, k := range ks {
				f.Insert(k)
			}
			return f
		}},
		{"grafite", func(ks []uint64) core.RangeFilter {
			return grafite.New(ks, 16, 1.0/256)
		}},
	}

	t := metrics.NewTable("E11: empty range scans (len=1024, mid-gap)",
		"range_filter", "io_per_empty_scan", "io_per_hit_scan")
	scans := cfg.n(5000)
	for _, b := range builders {
		s := lsm.New(lsm.Options{Policy: lsm.PolicyBloom, MemtableSize: 1024, RangeFilter: b.build})
		for i, k := range keys {
			s.Put(k, uint64(i))
		}
		s.Flush()

		// Empty scans probe mid-gap (half a grid step past a key).
		before := s.Device().Reads()
		for i := 0; i < scans; i++ {
			lo := keys[i%len(keys)] + 1<<35
			if got := s.Scan(lo, lo+1023); len(got) != 0 {
				panic("E11: mid-gap scan returned entries")
			}
		}
		ioEmpty := float64(s.Device().Reads()-before) / float64(scans)
		// Hit scans: anchored on real keys.
		before = s.Device().Reads()
		for i := 0; i < scans; i++ {
			lo := keys[i%len(keys)]
			s.Scan(lo, lo+1023)
		}
		ioHit := float64(s.Device().Reads()-before) / float64(scans)
		t.AddRow(b.name, ioEmpty, ioHit)
	}
	return []*metrics.Table{t}
}
