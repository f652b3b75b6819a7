package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"beyondbloom/internal/fault"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/metrics"
)

// runE19 measures the durability layer (ROADMAP item 1; the tutorial's
// systems pitch assumes the store under the filters survives crashes).
// E19a is the crash-point sweep: a scripted workload runs over the
// crash-simulating filesystem and is killed after every single
// mutating filesystem operation — mid-append, mid-rotation, mid-flush,
// mid-checkpoint, mid-retire — then recovered and byte-compared
// against the write history. E19b is the price of that durability: put
// latency percentiles per durability mode over the same simulated
// device, isolating protocol overhead (framing, group-commit
// coordination, checkpoint scheduling) from raw device fsync cost,
// which is reported separately as fsyncs per 1k puts.
func runE19(cfg Config) []*metrics.Table {
	sweep, lat := e19CrashSweep(), e19Latency(cfg)
	return []*metrics.Table{sweep, lat, e19Acceptance(sweep, lat)}
}

// e19Acceptance gates on the sweep's seeded, deterministic counters and
// reports group commit's p99.9 over the no-WAL baseline against its 2x
// bound without gating on it: that ratio is wall-clock.
func e19Acceptance(sweep, lat *metrics.Table) *metrics.Table {
	a := metrics.NewAcceptance("E19: acceptance")
	a.AtMost("lost_acked_total", total[int](sweep, "lost_acked"), 0, true)
	a.AtMost("invented_total", total[int](sweep, "invented"), 0, true)
	p999 := func(mode string) float64 { return where(lat, "mode", mode, "p99_9_us")[0] }
	a.AtMost("within_2x", p999("group_commit")/p999("no_wal"), 2, false)
	return a
}

// e19Script mirrors the workload of the lsm crash tests: overlapping
// puts and deletes over a small key space, sized so the tiny geometry
// (memtable 8, segment 256 B) forces flushes, rotations, compactions
// and checkpoints within a few dozen operations.
const e19KeySpace = 37

func e19Script() []lsm.Entry {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	script := make([]lsm.Entry, 0, 60)
	for i := 0; i < 60; i++ {
		k := next()%e19KeySpace + 1
		if next()%5 == 0 {
			script = append(script, lsm.Entry{Key: k, Tombstone: true})
		} else {
			script = append(script, lsm.Entry{Key: k, Value: next()})
		}
	}
	return script
}

func e19Opts(mode lsm.Durability, fs fault.FS) lsm.Options {
	return lsm.Options{
		MemtableSize:    8,
		Policy:          lsm.PolicyBloom,
		Durability:      mode,
		FS:              fs,
		WALSegmentBytes: 256,
	}
}

// e19CrashSweep is fixed-size (the sweep is a proof, not a scaling
// study): for every durability mode it kills the store at every
// op-window, recovers, and classifies the outcome. A recovered image
// must equal the write-history prefix at or past the last acknowledged
// operation (durable modes) or any clean prefix (buffered); anything
// else counts as lost or invented writes — both columns must read 0.
func e19CrashSweep() *metrics.Table {
	script := e19Script()
	models := make([]map[uint64]uint64, len(script)+1)
	models[0] = map[uint64]uint64{}
	for i, e := range script {
		m := make(map[uint64]uint64, len(models[i])+1)
		for k, v := range models[i] {
			m[k] = v
		}
		if e.Tombstone {
			delete(m, e.Key)
		} else {
			m[e.Key] = e.Value
		}
		models[i+1] = m
	}

	t := metrics.NewTable(
		fmt.Sprintf("E19a: crash-point sweep (%d ops, memtable=8, segment=256B)", len(script)),
		"mode", "crash_points", "recovered", "lost_acked", "invented", "torn_repairs").Named("crash_sweep")
	for _, mode := range []struct {
		name string
		d    lsm.Durability
	}{
		{"group", lsm.DurabilityGroup},
		{"always", lsm.DurabilityAlways},
		{"buffered", lsm.DurabilityBuffered},
	} {
		run := func(fs *fault.CrashFS) (acked int, openErr error) {
			s, err := lsm.OpenStore("db", e19Opts(mode.d, fs))
			if err != nil {
				return 0, err
			}
			for i, e := range script {
				if err := s.Apply(e); err != nil {
					return i, nil
				}
			}
			s.Close()
			return len(script), nil
		}
		dry := fault.NewCrashFS(99)
		if acked, err := run(dry); err != nil || acked != len(script) {
			panic(fmt.Sprintf("E19a dry run failed: %d acked, %v", acked, err))
		}
		total := dry.Ops()
		var recovered, lost, invented, torn int
		for k := 1; k <= total; k++ {
			fs := fault.NewCrashFS(99)
			fs.CrashAfter(k)
			acked, openErr := run(fs)
			r, err := lsm.OpenStore("db", e19Opts(mode.d, fs.Recover()))
			if err != nil {
				invented++ // unrecoverable counts as data loss of the worst kind
				continue
			}
			torn += int(r.WAL().Stats().TornRepairs)
			state := make(map[uint64]uint64)
			for key := uint64(1); key <= e19KeySpace; key++ {
				if v, ok := r.Get(key); ok {
					state[key] = v
				}
			}
			lo := acked
			if mode.d == lsm.DurabilityBuffered || openErr != nil {
				lo = 0
			}
			hi := acked + 1
			if hi > len(script) {
				hi = len(script)
			}
			equal := func(i int) bool {
				if len(state) != len(models[i]) {
					return false
				}
				for key, v := range models[i] {
					if sv, has := state[key]; !has || sv != v {
						return false
					}
				}
				return true
			}
			// Distinct prefixes can share a state (an overwrite or no-op
			// delete), so check the acceptable window before concluding the
			// image is a stale — lost-write — prefix.
			outcome := &invented
			for i := lo; i <= hi; i++ {
				if equal(i) {
					outcome = &recovered
					break
				}
			}
			if outcome == &invented {
				for i := 0; i < lo; i++ {
					if equal(i) {
						outcome = &lost
						break
					}
				}
			}
			*outcome++
		}
		t.AddRow(mode.name, total, recovered, lost, invented, torn)
	}
	return t
}

// e19Latency prices each durability mode: concurrent writers apply
// distinct keys to a Background store over the simulated device and
// record per-put latency. Group commit's promise is the p99.9 column:
// writers piggyback on each other's syncs, so the tail stays near the
// no-WAL baseline while fsyncs-per-1k-puts (the device-bound cost a
// real disk would charge ~100µs each for) collapses versus
// fsync-per-op mode.
func e19Latency(cfg Config) *metrics.Table {
	n := cfg.n(100000)
	const writers = 4
	perWriter := n / writers
	t := metrics.NewTable(
		fmt.Sprintf("E19b: put latency by durability mode (puts=%d, writers=%d)", perWriter*writers, writers),
		"mode", "Mputs_per_sec", "p50_us", "p99_us", "p99_9_us", "fsyncs_per_1k").
		Named("latency").With("puts", perWriter*writers).With("writers", writers)
	for _, mode := range []struct {
		name string
		d    lsm.Durability
	}{
		{"no_wal", lsm.DurabilityNone},
		{"buffered", lsm.DurabilityBuffered},
		{"group_commit", lsm.DurabilityGroup},
		{"fsync_per_op", lsm.DurabilityAlways},
	} {
		fs := fault.NewCrashFS(1)
		opts := lsm.Options{
			MemtableSize: 1024, SizeRatio: 4, Policy: lsm.PolicyBloom,
			Background: true, L0RunBudget: 8,
		}
		var s *lsm.Store
		var err error
		if mode.d == lsm.DurabilityNone {
			s = lsm.New(opts)
		} else {
			opts.Durability = mode.d
			opts.FS = fs
			s, err = lsm.OpenStore("db", opts)
			if err != nil {
				panic(fmt.Sprintf("E19b open %s: %v", mode.name, err))
			}
		}
		lats := make([][]time.Duration, writers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lat := make([]time.Duration, perWriter)
				for i := 0; i < perWriter; i++ {
					k := uint64(w*perWriter + i + 1)
					t0 := time.Now()
					if err := s.Apply(lsm.Entry{Key: k, Value: k * 3}); err != nil {
						panic(fmt.Sprintf("E19b %s: %v", mode.name, err))
					}
					lat[i] = time.Since(t0)
				}
				lats[w] = lat
			}(w)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		var syncs uint64
		if wl := s.WAL(); wl != nil {
			syncs = wl.Stats().Syncs
		}
		s.Close()

		all := make([]time.Duration, 0, perWriter*writers)
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		us := func(q int) float64 { // q per mille
			return float64(all[len(all)*q/1000].Nanoseconds()) / 1e3
		}
		total := float64(len(all))
		t.AddRow(mode.name, total/el/1e6, us(500), us(990), us(999),
			float64(syncs)/total*1000)
	}
	return t
}
