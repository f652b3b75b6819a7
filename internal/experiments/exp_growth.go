package experiments

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/taffy"
	"beyondbloom/internal/workload"
)

// runE23 measures the GrowableFilter contract end to end (§2.2 made
// first-class): a taffy filter grows online from 2^10 toward 2^26 keys
// while we track FPR drift against its compound budget and bits/key
// against chained (scalable Bloom), donating-without-lengthening
// (InfiniFilter) and rebuild-from-scratch baselines; then the
// insert-latency shape during growth — the whole point of amortized
// expansion is the absence of a rebuild pause — and finally growth
// under the E18-style chaos workload on the sharded wrapper, where
// wrong_results is a live correctness invariant.
func runE23(cfg Config) []*metrics.Table {
	drift, lat, chaos := e23Drift(cfg), e23Latency(cfg), e23Chaos(cfg)
	return []*metrics.Table{drift, lat, chaos, e23Acceptance(drift, lat, chaos)}
}

// e23Acceptance gates on all three E23 claims: taffy's FPR within 1.5x
// its budget at every checkpoint, its worst insert microbatch within 10x
// its steady-state p99, and no wrong result in the chaos run.
func e23Acceptance(drift, lat, chaos *metrics.Table) *metrics.Table {
	a := metrics.NewAcceptance("E23: acceptance")
	a.AtMost("fpr_within_1_5x", slices.Max(where(drift, "structure", "taffy", "fpr")), 1.5*e23Eps, true)
	a.AtMost("pause_within_10x", where(lat, "strategy", "taffy", "pause_ratio")[0], 10, true)
	a.AtMost("wrong_results_total", total[int64](chaos, "wrong_results"), 0, true)
	return a
}

const (
	e23Eps   = 1.0 / 256
	e23Start = 1 << 10
	e23Seed  = uint64(23)
	// Baselines stop at 2^22 keys: past that the chained and rebuild
	// strategies dominate the run time without changing their curves,
	// while taffy continues alone to the full target.
	e23BaselineCapDoublings = 12
)

// e23Key is workload.Keys(n, e23Seed)[i] computed on the fly, so the
// 2^26-key stream never has to be materialized.
func e23Key(i int) uint64 { return hashutil.Mix64(uint64(i) + e23Seed<<32) }

// e23Doublings picks the checkpoint count: the largest d with
// e23Start<<d <= nFinal, at least 10 so even smoke scales exercise
// double-digit doubling rounds (2^10 start keeps that cheap).
func e23Doublings(nFinal int) int {
	d := 0
	for e23Start<<(d+1) <= nFinal {
		d++
	}
	if d < 10 {
		d = 10
	}
	return d
}

// e23Drift grows all four strategies checkpoint by checkpoint and
// records FPR and bits/key at every doubling. The rebuild baseline
// reconstructs a classic Bloom filter sized for the current n at each
// checkpoint — perfect space and FPR, paid for with a full-stop
// rebuild whose cost shows up in E23b.
func e23Drift(cfg Config) *metrics.Table {
	doublings := e23Doublings(cfg.n(1 << 26))
	nFinal := e23Start << doublings
	capN := e23Start << min(doublings, e23BaselineCapDoublings)
	neg := workload.DisjointKeys(1<<16, e23Seed)

	t := metrics.NewTable(
		fmt.Sprintf("E23: FPR and bits/key growing 2^10 -> n=%d (eps=1/256, budget_x1.5=%.5f, baseline_cap=%d)",
			nFinal, 1.5*e23Eps, capN),
		"n", "structure", "fpr", "bits_per_key", "expansions").
		Named("drift").With("n_final", nFinal).With("eps", e23Eps).With("baseline_cap", capN)

	tf, err := taffy.New(e23Start, e23Eps)
	if err != nil {
		panic(err) // parameters are statically valid
	}
	sb, err := bloom.NewScalable(e23Start, e23Eps)
	if err != nil {
		panic(err) // parameters are statically valid
	}
	inf, err := quotient.NewInfini(8)
	if err != nil {
		panic(err) // parameters are statically valid
	}

	inserted := 0
	for d := 0; d <= doublings; d++ {
		target := e23Start << d
		for inserted < target {
			k := e23Key(inserted)
			tf.Insert(k)
			if target <= capN {
				sb.Insert(k)
				inf.Insert(k)
			}
			inserted++
		}
		t.AddRow(target, "taffy", metrics.FPR(tf, neg), core.BitsPerKey(tf, inserted), tf.Expansions())
		if target > capN {
			continue
		}
		t.AddRow(target, "scalable", metrics.FPR(sb, neg), core.BitsPerKey(sb, inserted), sb.Expansions())
		t.AddRow(target, "infini", metrics.FPR(inf, neg), core.BitsPerKey(inf, inserted), inf.Expansions())
		// Rebuild-from-scratch: a right-sized classic Bloom filter per
		// checkpoint. FPR holds at the budget by construction; the cost
		// is re-inserting every key ever seen, measured in E23b.
		rb := bloom.New(target, e23Eps)
		for i := 0; i < target; i++ {
			rb.Insert(e23Key(i))
		}
		t.AddRow(target, "rebuild", metrics.FPR(rb, neg), core.BitsPerKey(rb, target), d)
	}
	return t
}

// e23Latency measures the insert-latency shape during growth in
// 256-insert microbatches. For taffy every expansion is amortized a few
// bucket splits at a time, so the worst batch stays within a small
// multiple of the steady-state p99; the rebuild strategy pays the whole
// reconstruction inside whichever batch crosses a power of two, so its
// worst batch is orders of magnitude above its p99. pause_ratio =
// max_batch / p99_batch is the acceptance number (taffy must stay
// under 10).
//
// Each strategy runs e23LatTrials times and each batch offset keeps its
// fastest trial: a structure's own pauses (splits, rebuilds) recur at
// the same offset every trial, while GC assists and scheduler
// preemption land at different offsets each run, so the per-offset
// minimum isolates the deterministic algorithmic cost the acceptance
// criterion is about.
func e23Latency(cfg Config) *metrics.Table {
	doublings := e23Doublings(cfg.n(1 << 26))
	nTaffy := e23Start << doublings
	nRebuild := e23Start << min(doublings, e23BaselineCapDoublings)
	const batch = 256

	t := metrics.NewTable(
		fmt.Sprintf("E23b: insert latency during growth, %d-insert microbatches (taffy_n=%d, rebuild_n=%d)",
			batch, nTaffy, nRebuild),
		"strategy", "n", "p50_us", "p99_us", "max_batch_us", "pause_ratio").Named("latency")

	// Taffy: one structure, one uninterrupted insert stream.
	addE23Lat(t, "taffy", nTaffy, e23BestOfTrials(nTaffy, batch, func() func(uint64) {
		tf, err := taffy.New(e23Start, e23Eps)
		if err != nil {
			panic(err) // parameters are statically valid
		}
		return func(k uint64) { tf.Insert(k) }
	}))

	// Rebuild: inserts go to a right-sized Bloom filter; crossing a
	// power of two rebuilds it from scratch inside the current batch.
	addE23Lat(t, "rebuild", nRebuild, e23BestOfTrials(nRebuild, batch, func() func(uint64) {
		rb := bloom.New(e23Start, e23Eps)
		rbCap := e23Start
		i := 0
		return func(k uint64) {
			if i == rbCap {
				rbCap *= 2
				rb = bloom.New(rbCap, e23Eps)
				for j := 0; j < i; j++ {
					rb.Insert(e23Key(j))
				}
			}
			rb.Insert(k)
			i++
		}
	}))
	return t
}

const e23LatTrials = 3

// e23BestOfTrials runs newInsert's stream e23LatTrials times in
// batch-sized microbatches and returns each offset's fastest trial in
// nanoseconds.
func e23BestOfTrials(n, batch int, newInsert func() func(uint64)) []int64 {
	best := make([]int64, n/batch)
	for i := range best {
		best[i] = 1 << 62
	}
	for trial := 0; trial < e23LatTrials; trial++ {
		insert := newInsert()
		for off := 0; off+batch <= n; off += batch {
			t0 := time.Now()
			for i := off; i < off+batch; i++ {
				insert(e23Key(i))
			}
			if d := time.Since(t0).Nanoseconds(); d < best[off/batch] {
				best[off/batch] = d
			}
		}
	}
	return best
}

func addE23Lat(t *metrics.Table, name string, n int, batches []int64) {
	rec := workload.NewLatencyRecorder(len(batches))
	rec.RecordAll(batches)
	p50 := rec.Percentile(50)
	p99 := rec.Percentile(99)
	max := rec.Percentile(100)
	ratio := 0.0
	if p99 > 0 {
		ratio = float64(max) / float64(p99)
	}
	t.AddRow(name, n, float64(p50)/1e3, float64(p99)/1e3, float64(max)/1e3, ratio)
}

// e23Chaos drives the sharded taffy wrapper through the E18 chaos
// shape: writers push every shard through repeated doubling rounds
// while readers hammer batched probes of already-inserted keys. A key
// whose insert completed before the probe began must answer positive —
// wrong_results counts violations and must be zero.
func e23Chaos(cfg Config) *metrics.Table {
	n := cfg.n(1 << 20)
	const logShards = 3
	keys := workload.Keys(n, e23Seed)

	t := metrics.NewTable(
		fmt.Sprintf("E23c: sharded growth under chaos probes (n=%d, shards=%d)", n, 1<<logShards),
		"writers", "readers", "expansions", "Minserts_per_sec", "Mprobes_per_sec", "wrong_results").Named("chaos")

	for _, rw := range []struct{ writers, readers int }{{2, 2}, {4, 4}} {
		s, err := concurrent.NewShardedMutable(logShards, func(int) core.MutableFilter {
			f, err := taffy.New(64, e23Eps)
			if err != nil {
				panic(err) // parameters are statically valid
			}
			return f
		})
		if err != nil {
			panic(err) // parameters are statically valid
		}

		inserted := make([]atomic.Bool, n)
		var done atomic.Bool
		var wrong, probes atomic.Int64
		var writeWG, readWG sync.WaitGroup
		per := n / rw.writers

		start := time.Now()
		for w := 0; w < rw.writers; w++ {
			writeWG.Add(1)
			go func(w int) {
				defer writeWG.Done()
				for i := w * per; i < (w+1)*per; i++ {
					s.Insert(keys[i])
					inserted[i].Store(true)
				}
			}(w)
		}
		for r := 0; r < rw.readers; r++ {
			readWG.Add(1)
			go func(r int) {
				defer readWG.Done()
				batch := make([]uint64, 256)
				out := make([]bool, 256)
				pre := make([]bool, 256)
				for round := 0; !done.Load(); round++ {
					base := (r*7919 + round*4099) % (n - len(batch))
					copy(batch, keys[base:base+len(batch)])
					for j := range batch {
						pre[j] = inserted[base+j].Load()
					}
					s.ContainsBatch(batch, out)
					probes.Add(int64(len(batch)))
					for j := range batch {
						if pre[j] && !out[j] {
							wrong.Add(1)
						}
					}
				}
			}(r)
		}
		writeWG.Wait()
		writeSecs := time.Since(start).Seconds()
		done.Store(true)
		readWG.Wait()
		totalSecs := time.Since(start).Seconds()

		t.AddRow(rw.writers, rw.readers, s.Expansions(),
			float64(rw.writers*per)/writeSecs/1e6,
			float64(probes.Load())/totalSecs/1e6,
			wrong.Load())
	}
	return t
}
