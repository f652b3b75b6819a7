package lsm

import (
	"testing"

	"beyondbloom/internal/fault"
	"beyondbloom/internal/workload"
)

// FuzzGetBatch drives two stores of one filter policy through one
// script and checks the batch read kernel after every flush: against an
// exact model, and against scalar Get on the twin store, answer for
// answer and charge for charge (device reads, filter probes, faulted
// probes, maplet fallbacks; see check for the reads under faulted
// per-run filters). The first byte picks the compaction policy
// (%3), arms a filter-fault injector on both stores, seeded alike (bit
// 2), and picks the filter policy (bits 3–4: none, bloom, monkey,
// maplet). The rest is (op, arg) byte pairs over a 64-key table whose
// first two keys share a maplet fingerprint, so under the maplet
// colliding entries, duplicate candidates and runs of several
// candidates are routine:
//
//	0, 1 put table[arg%64]   2 overwrite a present key   3 delete table[arg%64]
//	4 flush                  5 compact: put arg%32+8 fresh keys, flush
//
// A script runs at most 256 ops over at most 1024 fresh keys, so that
// one input, which checks every present key at every flush, stays fast.
func FuzzGetBatch(f *testing.F) {
	a, b := collidingPair(f)
	table := append([]uint64{a, b}, workload.Keys(62, 7)...)
	fresh := workload.DisjointKeys(1<<10, 7)
	absent := workload.DisjointKeys(16, 8)
	const maplet = byte(PolicyMaplet) << 3
	f.Add([]byte{maplet | 0, 0, 0, 1, 1, 4, 0, 5, 200, 2, 0, 3, 1, 4, 0, 5, 9})
	f.Add([]byte{maplet | 4, 0, 0, 1, 1, 0, 7, 4, 0, 5, 30, 3, 0, 5, 31, 2, 5, 4, 0})
	f.Add([]byte{maplet | 1, 0, 0, 1, 1, 5, 31, 5, 31, 5, 31, 3, 0, 4, 0, 5, 31, 5, 31})
	f.Add([]byte{maplet | 6, 0, 0, 1, 1, 5, 20, 2, 1, 5, 20, 3, 1, 5, 20, 5, 20, 4, 0})
	// One seed per policy: several levels of runs, overwrites, deletes
	// and faulted probes.
	for p := PolicyNone; p <= PolicyMaplet; p++ {
		f.Add([]byte{byte(p)<<3 | 4 | byte(p)%3, 0, 3, 5, 31, 2, 9, 3, 3, 5, 31, 5, 31, 2, 40, 3, 7, 5, 31, 4, 0})
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		script = script[:min(len(script), 1+2*256)]
		opts := Options{
			Policy:       FilterPolicy(script[0] >> 3 & 3),
			MemtableSize: 8,
			Compaction:   CompactionPolicy(script[0] % 3),
		}
		stores := [2]*Store{}
		for i := range stores {
			if script[0]&4 != 0 {
				opts.FilterFaults = fault.NewInjector(uint64(script[0]), fault.Transient(0.25))
			}
			stores[i] = New(opts)
		}
		batch, scalar := stores[0], stores[1]
		model := map[uint64]uint64{}
		var present []uint64
		next, val := 0, uint64(0)
		put := func(k uint64) {
			val++
			for _, s := range stores {
				s.Put(k, val)
			}
			if _, ok := model[k]; !ok {
				present = append(present, k)
			}
			model[k] = val
		}
		check := func() {
			t.Helper()
			for _, s := range stores {
				s.Flush()
			}
			probes := append(append(append([]uint64{}, table...), present...), absent...)
			values, found := make([]uint64, len(probes)), make([]bool, len(probes))
			reads, probed := batch.Device().Reads(), batch.FilterProbes()
			faulted, fallbacks := batch.FilterFallbacks(), batch.MapletFallbacks()
			sreads, sprobed := scalar.Device().Reads(), scalar.FilterProbes()
			sfaulted, sfallbacks := scalar.FilterFallbacks(), scalar.MapletFallbacks()
			batch.GetBatch(probes, values, found)
			for i, k := range probes {
				want, wok := model[k]
				v, ok := scalar.Get(k)
				if found[i] != wok || (wok && values[i] != want) {
					t.Fatalf("key %d: GetBatch (%d, %v), model (%d, %v)", k, values[i], found[i], want, wok)
				}
				if ok != wok || (wok && v != want) {
					t.Fatalf("key %d: Get (%d, %v), model (%d, %v)", k, v, ok, want, wok)
				}
			}
			// Per-run filters are probed run by run in a batch and key by
			// key in Get, so the same fault draws land on other probes: a
			// fault costs a read only where the filter would have said no,
			// and the reads may differ by up to the faulted probes.
			slack := 0
			if opts.Policy != PolicyMaplet {
				slack = batch.FilterFallbacks() - faulted
			}
			for _, c := range []struct {
				name          string
				batch, scalar int
				slack         int
			}{
				{"device reads", batch.Device().Reads() - reads, scalar.Device().Reads() - sreads, slack},
				{"filter probes", batch.FilterProbes() - probed, scalar.FilterProbes() - sprobed, 0},
				{"faulted probes", batch.FilterFallbacks() - faulted, scalar.FilterFallbacks() - sfaulted, 0},
				{"maplet fallbacks", batch.MapletFallbacks() - fallbacks, scalar.MapletFallbacks() - sfallbacks, 0},
			} {
				if c.batch > c.scalar+c.slack || c.scalar > c.batch+c.slack {
					t.Fatalf("%s: GetBatch charged %d, Get %d", c.name, c.batch, c.scalar)
				}
			}
		}
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i]%6, int(script[i+1])
			switch op {
			case 0, 1:
				put(table[arg%len(table)])
			case 2:
				if len(present) > 0 {
					put(present[arg%len(present)])
				}
			case 3:
				k := table[arg%len(table)]
				for _, s := range stores {
					s.Delete(k)
				}
				delete(model, k)
			case 4:
				check()
			case 5:
				for n := arg%32 + 8; n > 0 && next < len(fresh); n-- {
					put(fresh[next])
					next++
				}
				check()
			}
		}
		check()
	})
}
