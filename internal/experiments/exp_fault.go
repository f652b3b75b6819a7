package experiments

import (
	"context"
	"strconv"

	"beyondbloom/internal/adaptive"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// runE16 measures what the rest of the suite assumes away: how the
// filter-fronted systems behave when the backing store misbehaves.
//
// (a) The §2.3 adaptive repair loop against a remote that errs: with
// retries the loop still converges (repeat false positives get fixed,
// just a little later), and during a full outage it degrades to
// deferred repairs without ever losing the no-false-negative guarantee.
//
// (b) The §3.1 LSM store with faulty device and filter blocks: lookups
// stay exactly correct while the I/O counters show the degraded-mode
// premium (retries, replica recoveries, filter-fallback probes).
func runE16(cfg Config) []*metrics.Table {
	return []*metrics.Table{e16Adaptive(cfg), e16LSM(cfg)}
}

// e16Adaptive replays an adversarial false-positive attack for several
// rounds under different remote-fault policies.
func e16Adaptive(cfg Config) *metrics.Table {
	n := cfg.n(100000)
	keys := workload.Keys(n, 61)

	// Probe filter used only to discover attack keys.
	probe := cuckoo.NewAdaptive(n, 10)
	truth := core.NewMapSet()
	for _, k := range keys {
		probe.Insert(k)
		truth.Insert(k)
	}
	var attack []uint64
	for _, k := range workload.DisjointKeys(500000, 61) {
		if probe.Contains(k) {
			if attack = append(attack, k); len(attack) == 50 {
				break
			}
		}
	}

	const rounds = 30
	type scenario struct {
		name  string
		rules []fault.Rule
		opts  adaptive.ResilientOptions
	}
	scenarios := []scenario{
		{"healthy", nil, adaptive.ResilientOptions{}},
		{"err20%_no_retry", []fault.Rule{fault.Transient(0.2)}, adaptive.ResilientOptions{}},
		{"err20%_retry4", []fault.Rule{fault.Transient(0.2)}, adaptive.ResilientOptions{Attempts: 4}},
		// Total outage for the first 5 rounds' worth of remote calls,
		// then recovery: repairs defer during the outage and complete
		// after it.
		{"outage_then_recover", []fault.Rule{fault.TransientBetween(1.0, 1, uint64(5*len(attack)+1))},
			adaptive.ResilientOptions{}},
	}

	t := metrics.NewTable("E16a: adaptive repair under remote faults ("+
		strconv.Itoa(len(attack))+" FPs x "+strconv.Itoa(rounds)+" rounds)",
		"scenario", "positives_total", "rounds_to_clean", "remote_errors", "deferred", "repaired_late", "false_negatives")
	ctx := context.Background()
	for _, sc := range scenarios {
		f := cuckoo.NewAdaptive(n, 10)
		for _, k := range keys {
			f.Insert(k)
		}
		remote := fault.NewFallibleSet(truth, fault.NewInjector(97, sc.rules...))
		r := adaptive.NewResilient(f, remote, sc.opts)

		positives, converged := 0, -1
		for round := 0; round < rounds; round++ {
			roundPos := 0
			for _, k := range attack {
				if r.Contains(ctx, k) {
					roundPos++ // absent key reported present (unverified or unrepaired)
				}
			}
			positives += roundPos
			if roundPos == 0 && converged < 0 {
				converged = round
			}
		}
		s := r.Stats() // snapshot before the sweep below adds accesses
		// The guarantee that must survive every fault policy.
		fns := 0
		for _, k := range keys[:cfg.n(20000)] {
			if !r.Contains(ctx, k) {
				fns++
			}
		}
		roundsTo := "never"
		if converged >= 0 {
			roundsTo = strconv.Itoa(converged)
		}
		t.AddRow(sc.name, positives, roundsTo, int(s.RemoteErrors), int(s.Deferred), int(s.RepairedLater), fns)
	}
	return t
}

// e16LSM compares a healthy store against stores whose device and
// filter blocks fault, verifying exactness while charging degraded I/O.
func e16LSM(cfg Config) *metrics.Table {
	n := cfg.n(200000)
	keys := workload.Keys(n, 10)
	missQ := workload.DisjointKeys(cfg.n(50000), 10)
	hitQ := keys[:cfg.n(50000)]

	type scenario struct {
		name         string
		deviceFaults func() *fault.Injector
		filterFaults func() *fault.Injector
	}
	scenarios := []scenario{
		{"healthy", nil, nil},
		{"dev_err20%", func() *fault.Injector {
			return fault.NewInjector(201, fault.Transient(0.2))
		}, nil},
		{"filter_corrupt20%", nil, func() *fault.Injector {
			return fault.NewInjector(202, fault.BitFlip(0.2))
		}},
		{"dev_err20%+perm2%+filter10%", func() *fault.Injector {
			return fault.NewInjector(203, fault.Transient(0.2), fault.Permanent(0.02))
		}, func() *fault.Injector {
			return fault.NewInjector(204, fault.Transient(0.1))
		}},
	}

	t := metrics.NewTable("E16b: LSM lookups under device/filter faults (Monkey filters, n="+strconv.Itoa(n)+")",
		"scenario", "io_per_miss", "io_per_hit", "filter_fallbacks", "replica_reads", "failed_ios", "wrong_answers")
	for _, sc := range scenarios {
		opts := lsm.Options{Policy: lsm.PolicyMonkey, MemtableSize: 1024, SizeRatio: 4}
		if sc.filterFaults != nil {
			opts.FilterFaults = sc.filterFaults()
		}
		s := lsm.New(opts)
		for i, k := range keys {
			s.Put(k, uint64(i))
		}
		s.Flush()
		// Faults start at lookup time so every scenario serves the same
		// tree shape; ingest-time faults are E-fault's test-suite half.
		if sc.deviceFaults != nil {
			s.Device().Faults = sc.deviceFaults()
		}

		wrong := 0
		before := s.Device().Reads()
		for _, k := range missQ {
			if _, ok := s.Get(k); ok {
				wrong++
			}
		}
		ioMiss := float64(s.Device().Reads()-before) / float64(len(missQ))
		before = s.Device().Reads()
		for _, k := range hitQ {
			v, ok := s.Get(k)
			if !ok || keys[v] != k {
				wrong++
			}
		}
		ioHit := float64(s.Device().Reads()-before) / float64(len(hitQ))
		d := s.Device()
		t.AddRow(sc.name, ioMiss, ioHit, s.FilterFallbacks(), d.ReplicaReads(),
			d.FailedReads()+d.FailedWrites(), wrong)
	}
	return t
}
