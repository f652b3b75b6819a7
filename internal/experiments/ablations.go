package experiments

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/rosetta"
	"beyondbloom/internal/stacked"
	"beyondbloom/internal/surf"
	"beyondbloom/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out. They are
// registered alongside E1-E14 with A-prefixed ids.

func ablations() []Experiment {
	return []Experiment{
		{"A1", "SuRF suffix mode ablation (none/hash/real, width)", runA1},
		{"A2", "Rosetta memory split ablation (geometric vs even)", runA2},
		{"A3", "Cuckoo fingerprint width ablation", runA3},
		{"A4", "Stacked filter depth ablation", runA4},
		{"A5", "LSM size ratio ablation (T=2/4/8)", runA5},
		{"A6", "Concurrency: sharded filter scaling with goroutines", runA6},
	}
}

// runA1: suffix bits trade space for point-query FPR; only real suffixes
// help range queries.
func runA1(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n, 101)
	neg := workload.DisjointKeys(n, 101)
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var corEmpty [][2]uint64
	for _, q := range workload.CorrelatedRanges(keys, cfg.n(20000), 16, 2, 103) {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= q.Lo })
		if i >= len(sorted) || sorted[i] > q.Hi {
			corEmpty = append(corEmpty, [2]uint64{q.Lo, q.Hi})
		}
	}
	t := metrics.NewTable("A1: SuRF suffix modes (n="+strconv.Itoa(n)+")",
		"variant", "bits/key", "point_fpr", "correlated_range_fpr")
	for _, v := range []struct {
		name string
		mode surf.SuffixMode
		bits uint
	}{
		{"base(no suffix)", surf.SuffixNone, 0},
		{"hash4", surf.SuffixHash, 4},
		{"hash8", surf.SuffixHash, 8},
		{"real8", surf.SuffixReal, 8},
		{"real16", surf.SuffixReal, 16},
	} {
		f := surf.New(keys, v.mode, v.bits)
		t.AddRow(v.name, float64(f.SizeBits())/float64(n),
			metrics.FPR(f, neg), metrics.RangeFPR(f, corEmpty))
	}
	return []*metrics.Table{t}
}

// runA2: geometric (bottom-heavy) vs even Rosetta splits.
func runA2(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n, 107)
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	emptyRanges := func(length uint64, m int, seed int64) [][2]uint64 {
		qs := workload.UniformRanges(2*m, length, ^uint64(0)-2*length-2, seed)
		var out [][2]uint64
		for _, q := range qs {
			i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= q.Lo })
			if i >= len(sorted) || sorted[i] > q.Hi {
				out = append(out, [2]uint64{q.Lo, q.Hi})
				if len(out) == m {
					break
				}
			}
		}
		return out
	}
	t := metrics.NewTable("A2: Rosetta memory split at 20 bits/key",
		"split", "fpr_len16", "fpr_len1024", "fpr_len16384")
	geo := rosetta.New(n, 20, 16)
	even := rosetta.NewEvenSplit(n, 20, 16)
	for _, k := range keys {
		geo.Insert(k)
		even.Insert(k)
	}
	m := cfg.n(3000)
	for _, v := range []struct {
		name string
		f    *rosetta.Filter
	}{{"geometric", geo}, {"even", even}} {
		t.AddRow(v.name,
			metrics.RangeFPR(v.f, emptyRanges(16, m, 1)),
			metrics.RangeFPR(v.f, emptyRanges(1024, m, 2)),
			metrics.RangeFPR(v.f, emptyRanges(16384, m, 3)))
	}
	return []*metrics.Table{t}
}

// runA3: cuckoo fingerprint width: space vs FPR, and achievable load.
func runA3(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n*2, 109)
	neg := workload.DisjointKeys(n, 109)
	t := metrics.NewTable("A3: cuckoo fingerprint width (n="+strconv.Itoa(n)+")",
		"fp_bits", "bits/key", "measured_fpr", "achieved_load")
	for _, fp := range []uint{4, 8, 12, 16} {
		f := cuckoo.New(n, fp)
		inserted := 0
		for _, k := range keys {
			if f.Insert(k) != nil {
				break
			}
			inserted++
			if inserted >= n {
				break
			}
		}
		t.AddRow(fp, float64(f.SizeBits())/float64(inserted),
			metrics.FPR(f, neg), f.LoadFactor())
	}
	return []*metrics.Table{t}
}

// runA4: stacked depth: hot-negative suppression saturates after a few
// layers while cold FPR stays flat.
func runA4(cfg Config) []*metrics.Table {
	n := cfg.n(100000)
	pos := workload.Keys(n, 113)
	hotNeg := workload.DisjointKeys(n/10, 113)
	coldNeg := workload.DisjointKeys(n, 114)
	t := metrics.NewTable("A4: stacked filter depth at 8 bits/key/layer",
		"depth", "layers_built", "bits/key", "fpr_hot", "fpr_cold")
	for _, d := range []int{1, 3, 5, 7} {
		f := stacked.New(pos, hotNeg, 8, d)
		t.AddRow(d, f.Layers(), float64(f.SizeBits())/float64(n),
			metrics.FPR(f, hotNeg), metrics.FPR(f, coldNeg))
	}
	return []*metrics.Table{t}
}

// runA6: sharded quotient filter throughput vs goroutine count — the
// tutorial's §1 feature (6): filters that "scale with the number of
// threads".
func runA6(cfg Config) []*metrics.Table {
	n := cfg.n(400000)
	t := metrics.NewTable("A6: sharded quotient filter (64 shards), mixed 90/10 read/write, GOMAXPROCS="+
		strconv.Itoa(runtime.GOMAXPROCS(0))+" (speedup bounded by available cores)",
		"goroutines", "Mops/sec", "speedup")
	keys := workload.Keys(n, 121)
	build := func() *concurrent.Sharded {
		s, err := concurrent.NewSharded(6, func(int) core.DeletableFilter {
			return quotient.NewForCapacity(n/64*2, 0.001)
		})
		if err != nil {
			panic(err) // 6 log-shards is statically valid
		}
		for _, k := range keys {
			s.Insert(k)
		}
		return s
	}
	opsPer := n / 2
	var base float64
	for _, g := range []int{1, 2, 4, 8} {
		s := build()
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPer/g; i++ {
					k := keys[(i*g+w)%len(keys)]
					if i%10 == 0 {
						s.Insert(k + uint64(w)<<40)
					} else {
						s.Contains(k)
					}
				}
			}(w)
		}
		wg.Wait()
		mops := float64(opsPer) / time.Since(start).Seconds() / 1e6
		if g == 1 {
			base = mops
		}
		t.AddRow(g, mops, mops/base)
	}
	return []*metrics.Table{t}
}

// runA5: LSM size ratio: bigger T means fewer levels (fewer probes,
// lower miss cost) but more rewriting per level (higher write amp).
func runA5(cfg Config) []*metrics.Table {
	n := cfg.n(200000)
	keys := workload.Keys(n, 115)
	missQ := workload.DisjointKeys(cfg.n(20000), 115)
	t := metrics.NewTable("A5: LSM size ratio (leveling, Monkey filters)",
		"T", "levels", "write_amp", "io_per_miss")
	dataBlocks := (n + 127) / 128
	for _, T := range []int{2, 4, 8} {
		s := lsm.New(lsm.Options{Policy: lsm.PolicyMonkey, MemtableSize: 1024, SizeRatio: T})
		for i, k := range keys {
			s.Put(k, uint64(i))
		}
		s.Flush()
		writeAmp := float64(s.Device().Writes()) / float64(dataBlocks)
		before := s.Device().Reads()
		for _, k := range missQ {
			s.Get(k)
		}
		t.AddRow(T, s.Levels(), writeAmp,
			float64(s.Device().Reads()-before)/float64(len(missQ)))
	}
	return []*metrics.Table{t}
}
