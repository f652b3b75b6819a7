package experiments

import (
	"fmt"
	"runtime"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
)

// runE21 measures the filter service end to end (§3.3, ROADMAP item 2):
// does feeding the batch kernels whatever point requests are already
// waiting buy real capacity, and what does it cost in latency?
//
// The headline table is OPEN-LOOP: a Poisson arrival schedule is
// replayed against the engine at offered loads set relative to the
// measured scalar capacity, and each request's latency is measured
// from its *scheduled* arrival — so queueing delay counts, and a
// server that cannot keep up shows an exploding tail instead of a
// flattering throughput number. The scalar baseline is the dispatcher
// paying one filter probe per request; the batched server is the same
// dispatcher handing everything already due (at most one BatchChunk)
// to Engine.ContainsBatch in one call — a few keys below the knee, full
// batches past it, and never a wait for company. Batching raises
// the capacity ceiling, so past the scalar knee the batched tail stays
// bounded where the scalar tail diverges.
func runE21(cfg Config) []*metrics.Table {
	n := cfg.n(4 << 20)
	filter, err := concurrent.NewShardedMutable(2, func(int) core.MutableFilter {
		return bloom.NewBlocked(n/4+1, 12)
	})
	if err != nil {
		panic(err)
	}
	present := workload.Keys(n, 21)
	for _, k := range present {
		if err := filter.Insert(k); err != nil {
			panic(err)
		}
	}
	absent := workload.DisjointKeys(n, 21)

	// The query stream is Zipfian (s=1.1) over a mixed universe: half
	// the draws hit present keys, half absent ones — hot keys repeat,
	// as service traffic does.
	q := cfg.n(250000)
	idx := workload.Zipf(q, n, 1.1, 210)
	stream := make([]uint64, q)
	for i, j := range idx {
		if i&1 == 0 {
			stream[i] = present[j]
		} else {
			stream[i] = absent[j]
		}
	}
	expect := make([]bool, q)
	core.ContainsBatch(filter, stream, expect)

	capTable, capScalar := e21Capacity(cfg, filter, stream)
	open := e21OpenLoop(cfg, filter, stream, expect, capScalar)
	return []*metrics.Table{capTable, open, e21Acceptance(open)}
}

// e21Acceptance gates on wrong membership answers (seeded stream, exact
// expectations) and reports the wall-clock claim without gating: at the
// highest offered load — the sweep's last two rows, scalar then batched
// — the batched server achieves at least the throughput at no worse a p99.
func e21Acceptance(open *metrics.Table) *metrics.Table {
	a := metrics.NewAcceptance("E21: acceptance")
	a.AtMost("wrong_results_total", total[int64](open, "wrong_results"), 0, true)
	kops, p99 := metrics.Column[float64](open, "achieved_kops"), metrics.Column[float64](open, "p99_us")
	scalar, batched := len(kops)-2, len(kops)-1
	a.AtLeast("batched_beats_scalar_at_high_load_kops", kops[batched]/kops[scalar], 1, false)
	a.AtMost("batched_beats_scalar_at_high_load_p99", p99[batched]/p99[scalar], 1, false)
	return a
}

// e21Capacity measures the two probe kernels' saturation throughput
// over the stream, interleaved: one scalar Contains per request vs one
// ContainsBatch per chunk. Their ratio is the capacity headroom
// batching can unlock for the service. It also returns the scalar
// capacity in probes per second, which sets the open loop's offered load.
func e21Capacity(cfg Config, filter core.BatchFilter, stream []uint64) (*metrics.Table, float64) {
	chunk := min(core.BatchChunk, len(stream))
	ns := cfg.interleave(probePair(filter, stream, chunk))
	speedup, iqr := metrics.Ratio(ns[0], ns[1])
	scalar, batched := 1e9/perKey(ns[0], chunk), 1e9/perKey(ns[1], chunk)

	t := metrics.NewTable(
		fmt.Sprintf("E21: probe-engine capacity (stream=%d, GOMAXPROCS=%d)", len(stream), runtime.GOMAXPROCS(0)),
		"engine", "Mops_per_sec", "speedup_vs_scalar").
		Named("capacity").With("stream", len(stream)).With("gomaxprocs", runtime.GOMAXPROCS(0)).With("speedup_iqr", iqr)
	t.AddRow("scalar", scalar/1e6, 1.0)
	t.AddRow("batched", batched/1e6, speedup)
	return t, scalar
}

// e21Load is one open-loop run: the stream, its arrival schedule, and
// where the answers are checked and the latencies land. Its two serve
// methods are the two server shapes; each answers request i (and, if it
// likes, the requests after it that are already due at nowNs) and
// returns how many it took and the clock after answering, which the
// pacer reuses instead of reading the clock twice.
type e21Load struct {
	stream []uint64
	arr    []int64 // scheduled arrivals, ns from start
	expect []bool
	lats   []int64
	start  time.Time
	wrong  int64
	calls  int64

	filter core.Filter    // scalar
	engine *server.Engine // batched
	out    []bool
}

// complete records the answers of requests [i, i+len(got)) at the
// current clock and returns that clock.
func (l *e21Load) complete(i int, got []bool) int64 {
	now := time.Since(l.start).Nanoseconds()
	for j, ok := range got {
		if ok != l.expect[i+j] {
			l.wrong++
		}
		l.lats[i+j] = now - l.arr[i+j]
	}
	l.calls++
	return now
}

// scalar is the unbatched server: one synchronous probe per request.
func (l *e21Load) scalar(i int, _ int64) (int, int64) {
	l.out[0] = l.filter.Contains(l.stream[i])
	return 1, l.complete(i, l.out[:1])
}

// batched is the clockless front-end: whatever is due when the
// dispatcher looks goes down the engine's direct batch path together.
func (l *e21Load) batched(i int, nowNs int64) (int, int64) {
	end := i + 1
	for end < len(l.arr) && end-i < len(l.out) && l.arr[end] <= nowNs {
		end++
	}
	if err := l.engine.ContainsBatch(l.stream[i:end], l.out); err != nil {
		panic(err)
	}
	return end - i, l.complete(i, l.out[:end-i])
}

// e21Replay paces the schedule arr onto serve and returns the
// wall-clock seconds the whole run took. When the dispatcher falls
// behind schedule it serves as fast as it can — open loop: the backlog
// becomes queueing latency, not a slower offered rate. Pacing spins
// rather than sleeping, except far ahead of schedule: a sleeper on the
// reference guest wakes more than a millisecond late, which would
// inject phantom multi-ms tail latencies at low load.
func e21Replay(serve func(i int, nowNs int64) (int, int64), arr []int64, start time.Time) float64 {
	now := int64(0)
	for i := 0; i < len(arr); {
		for now < arr[i] {
			now = time.Since(start).Nanoseconds()
			if ahead := arr[i] - now; ahead > 5_000_000 {
				time.Sleep(time.Duration(ahead - 3_000_000))
			}
		}
		n, t := serve(i, now)
		i, now = i+n, t
	}
	return time.Since(start).Seconds()
}

// e21OpenLoop sweeps offered load across the scalar capacity knee and
// reports the latency distribution both server shapes deliver.
func e21OpenLoop(cfg Config, filter core.Filter, stream []uint64, expect []bool, capScalar float64) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E21a: open-loop Poisson sweep (q=%d, maxbatch=%d; offered relative to scalar capacity %.1f Mops)",
			len(stream), core.BatchChunk, capScalar/1e6),
		"offered_x_cap", "mode", "offered_kops", "achieved_kops", "p50_us", "p99_us", "p999_us", "avg_batch", "wrong_results").Named("open_loop")
	engine, err := server.NewEngine(filter, nil, server.Config{})
	if err != nil {
		panic(err)
	}
	defer engine.Close()
	for _, mult := range []float64{0.3, 0.6, 0.9, 1.1, 1.4} {
		rate := mult * capScalar
		arr := workload.PoissonArrivals(len(stream), rate, int64(2100+int(mult*100)))
		for _, mode := range []string{"scalar", "batched"} {
			l := &e21Load{
				stream: stream, arr: arr, expect: expect,
				lats: make([]int64, len(stream)), start: time.Now(),
				filter: filter, engine: engine, out: make([]bool, core.BatchChunk),
			}
			serve := l.scalar
			if mode == "batched" {
				serve = l.batched
			}
			wall := e21Replay(serve, arr, l.start)
			rec := workload.NewLatencyRecorder(0)
			rec.RecordAll(l.lats)
			t.AddRow(mult, mode,
				rate/1e3,
				float64(len(stream))/wall/1e3,
				float64(rec.Percentile(50))/1e3,
				float64(rec.Percentile(99))/1e3,
				float64(rec.Percentile(99.9))/1e3,
				float64(len(stream))/float64(l.calls),
				l.wrong)
		}
	}
	return t
}
