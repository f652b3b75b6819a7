package experiments

import (
	"slices"

	"beyondbloom/internal/lsm"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// runE22 measures the maplet-first read path (the key→(run, block)
// primary index) against the per-run filter policies across the tree
// shapes E10/E11/E18 exercise: a uniform leveled tree, a many-run
// tiered tree, and a lazy-leveled tree under overwrite/delete churn.
// Every cell cross-checks each lookup against an exact model map, so
// wrong_results pins correctness, not just cost. E22b charts the
// native maplet GetBatch against scalar Gets on the same store.
func runE22(cfg Config) []*metrics.Table {
	n := cfg.n(200000)
	keys := workload.Keys(n, 10)
	missQ := workload.DisjointKeys(cfg.n(20000), 10)

	shapes := []struct {
		name  string
		comp  lsm.CompactionPolicy
		churn bool
	}{
		{"uniform_leveling", lsm.Leveling, false},
		{"uniform_tiering", lsm.Tiering, false},
		{"churn_lazy_leveling", lsm.LazyLeveling, true},
	}
	policies := []struct {
		name string
		p    lsm.FilterPolicy
	}{
		{"bloom_uniform", lsm.PolicyBloom},
		{"monkey", lsm.PolicyMonkey},
		{"maplet_first", lsm.PolicyMaplet},
	}
	t := metrics.NewTable("E22: maplet-first point reads vs per-run filters (n="+itoa(n)+", T=4)",
		"shape", "policy", "runs", "reads_per_hit", "reads_per_miss", "filter_bytes_per_key", "wrong_results").
		Named("point_reads").With("n", n)
	for _, sh := range shapes {
		for _, pc := range policies {
			s := lsm.New(lsm.Options{
				Policy: pc.p, MemtableSize: 1024, SizeRatio: 4,
				BitsPerKey: 10, Compaction: sh.comp,
			})
			model := make(map[uint64]uint64, n)
			for i, k := range keys {
				s.Put(k, uint64(i))
				model[k] = uint64(i)
			}
			if sh.churn {
				// Overwrite ~a third of the keys and delete a tenth, so the
				// maplet must track re-pointed and dropped keys through the
				// compactions the churn triggers.
				for i, k := range keys {
					switch i % 10 {
					case 0:
						s.Delete(k)
						delete(model, k)
					case 1, 2, 3:
						s.Put(k, uint64(i)*3)
						model[k] = uint64(i) * 3
					}
				}
			}
			s.Flush()

			hitQ := make([]uint64, 0, cfg.n(20000))
			for _, k := range keys {
				if _, ok := model[k]; ok {
					hitQ = append(hitQ, k)
					if len(hitQ) == cap(hitQ) {
						break
					}
				}
			}
			wrong := 0
			before := s.Device().Reads()
			for _, k := range hitQ {
				v, ok := s.Get(k)
				if !ok || v != model[k] {
					wrong++
				}
			}
			readsHit := float64(s.Device().Reads()-before) / float64(len(hitQ))
			before = s.Device().Reads()
			for _, k := range missQ {
				if _, ok := s.Get(k); ok {
					wrong++
				}
			}
			readsMiss := float64(s.Device().Reads()-before) / float64(len(missQ))
			t.AddRow(sh.name, pc.name, s.Runs(), readsHit, readsMiss,
				float64(s.FilterMemoryBits())/8/float64(n), wrong)
		}
	}

	// E22b: the native maplet batch path (one batched maplet probe, one
	// view walk per attempt) vs scalar Gets over the same half-present
	// half-absent stream. Timed best-of-3 to damp scheduler noise.
	bt := metrics.NewTable("E22b: PolicyMaplet GetBatch vs scalar Get (n="+itoa(n)+")",
		"batch", "scalar_mkeys_s", "batch_mkeys_s", "speedup").Named("batch")
	s := lsm.New(lsm.Options{Policy: lsm.PolicyMaplet, MemtableSize: 1024, SizeRatio: 4})
	for i, k := range keys {
		s.Put(k, uint64(i))
	}
	s.Flush()
	probe := make([]uint64, 0, 2*len(missQ))
	for i := range missQ {
		probe = append(probe, keys[i%len(keys)], missQ[i])
	}
	bestOf := func(fn func()) float64 {
		best := nsPerOp(len(probe), fn)
		for rep := 0; rep < 2; rep++ {
			if ns := nsPerOp(len(probe), fn); ns < best {
				best = ns
			}
		}
		return best
	}
	for _, bs := range []int{16, 64, 256, 1024} {
		values := make([]uint64, bs)
		found := make([]bool, bs)
		scalarNs := bestOf(func() {
			for _, k := range probe {
				s.Get(k)
			}
		})
		batchNs := bestOf(func() {
			for off := 0; off < len(probe); off += bs {
				end := off + bs
				if end > len(probe) {
					end = len(probe)
				}
				s.GetBatch(probe[off:end], values[:end-off], found[:end-off])
			}
		})
		bt.AddRow(bs, 1e3/scalarNs, 1e3/batchNs, scalarNs/batchNs)
	}
	return []*metrics.Table{t, bt, e22Acceptance(t, bt)}
}

// e22Acceptance gates on the exact-model cross-check and the maplet-first
// reads per present key (counters of a seeded workload); the batch-256
// speedup against its 1.3x bar is wall-clock, so it is only reported.
func e22Acceptance(reads, batch *metrics.Table) *metrics.Table {
	a := metrics.NewAcceptance("E22: acceptance")
	a.AtMost("wrong_results_total", total[int](reads, "wrong_results"), 0, true)
	a.AtMost("maplet_hit_within_1_2", slices.Max(where(reads, "policy", "maplet_first", "reads_per_hit")), 1.2, true)
	a.AtLeast("batch_256_at_least_1_3x", where(batch, "batch", 256, "speedup")[0], 1.3, false)
	return a
}
