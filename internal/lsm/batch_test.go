package lsm

import (
	"fmt"
	"testing"

	"beyondbloom/internal/fault"
	"beyondbloom/internal/workload"
)

// buildStore loads a deterministic workload: keys 0..n-1 with value
// 10*key, then deletes every 7th key.
func buildBatchStore(opts Options, n int) *Store {
	s := New(opts)
	for i := 0; i < n; i++ {
		s.Put(uint64(i)*3, uint64(i)*10)
	}
	for i := 0; i < n; i += 7 {
		s.Delete(uint64(i) * 3)
	}
	return s
}

func batchProbes(n int) []uint64 {
	// Present keys, deleted keys, absent keys, duplicates.
	probes := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		probes = append(probes, uint64(i)*3)   // present or tombstoned
		probes = append(probes, uint64(i)*3+1) // absent
	}
	probes = append(probes, probes[:16]...) // duplicates
	return probes
}

func TestGetBatchMatchesGet(t *testing.T) {
	const n = 3000
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"none", Options{Policy: PolicyNone}},
		{"bloom", Options{Policy: PolicyBloom}},
		{"monkey", Options{Policy: PolicyMonkey}},
		{"maplet", Options{Policy: PolicyMaplet}},
		{"bloom_tiering", Options{Policy: PolicyBloom, Compaction: Tiering}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scalar := buildBatchStore(tc.opts, n)
			batch := buildBatchStore(tc.opts, n)
			probes := batchProbes(n)

			baseScalar := scalar.Device().Reads()
			baseBatch := batch.Device().Reads()
			if baseScalar != baseBatch {
				t.Fatalf("construction I/O diverged: %d vs %d", baseScalar, baseBatch)
			}

			values := make([]uint64, len(probes))
			found := make([]bool, len(probes))
			batch.GetBatch(probes, values, found)
			for i, k := range probes {
				v, ok := scalar.Get(k)
				if found[i] != ok || (ok && values[i] != v) {
					t.Fatalf("key %d: batch (%d,%v) vs scalar (%d,%v)", k, values[i], found[i], v, ok)
				}
			}
			// Identical probe workload must charge identical read I/O and
			// filter probes on both paths.
			if got, want := batch.Device().Reads()-baseBatch, scalar.Device().Reads()-baseScalar; got != want {
				t.Errorf("batch read I/O %d, scalar %d", got, want)
			}
			if batch.FilterProbes() != scalar.FilterProbes() {
				t.Errorf("batch FilterProbes %d, scalar %d", batch.FilterProbes(), scalar.FilterProbes())
			}
		})
	}
}

func TestGetBatchEdgeBatches(t *testing.T) {
	s := buildBatchStore(Options{Policy: PolicyBloom}, 500)
	// Empty batch is a no-op.
	s.GetBatch(nil, nil, nil)
	// Single-key batch.
	values := make([]uint64, 1)
	found := make([]bool, 1)
	s.GetBatch([]uint64{3}, values, found)
	if v, ok := s.Get(3); ok != found[0] || (ok && v != values[0]) {
		t.Fatalf("single-key batch mismatch")
	}
	// Stale output buffers are overwritten.
	values[0], found[0] = 999, true
	s.GetBatch([]uint64{1}, values, found) // absent key
	if found[0] {
		t.Fatal("stale found not overwritten for absent key")
	}
}

// TestGetBatchWithFilterFaults exercises the degraded path: faulted
// filter probes must fall back to data I/O, never to a wrong answer.
func TestGetBatchWithFilterFaults(t *testing.T) {
	const n = 2000
	opts := Options{
		Policy:       PolicyBloom,
		FilterFaults: fault.NewInjector(77, fault.Transient(0.2)),
	}
	s := buildBatchStore(opts, n)
	probes := batchProbes(n)
	values := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	s.GetBatch(probes, values, found)
	// Answers must be exact regardless of filter faults; compare against
	// a fault-free scalar store.
	ref := buildBatchStore(Options{Policy: PolicyBloom}, n)
	for i, k := range probes {
		v, ok := ref.Get(k)
		if found[i] != ok || (ok && values[i] != v) {
			t.Fatalf("key %d: faulted batch (%d,%v) vs reference (%d,%v)", k, values[i], found[i], v, ok)
		}
	}
	if s.FilterFallbacks() == 0 {
		t.Fatal("expected some faulted filter probes")
	}
}

// TestMapletGetBatchWithFaults is the maplet batch kernel's degraded
// path: with both the maplet probe and the data device faulting,
// answers stay exact, faulted probes fall back to the filterless walk,
// and reads that exhaust their retries recover from the replica.
func TestMapletGetBatchWithFaults(t *testing.T) {
	const n = 2000
	s := buildBatchStore(Options{
		Policy:       PolicyMaplet,
		FilterFaults: fault.NewInjector(78, fault.Transient(0.2)),
		DeviceFaults: fault.NewInjector(79, fault.Transient(0.3), fault.Permanent(0.05)),
	}, n)
	ref := buildBatchStore(Options{Policy: PolicyMaplet}, n)
	probes := batchProbes(n)
	values := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	for at := 0; at < len(probes); at += 256 {
		end := min(at+256, len(probes))
		s.GetBatch(probes[at:end], values[at:end], found[at:end])
	}
	for i, k := range probes {
		v, ok := ref.Get(k)
		if found[i] != ok || (ok && values[i] != v) {
			t.Fatalf("key %d: faulted batch (%d,%v) vs reference (%d,%v)", k, values[i], found[i], v, ok)
		}
	}
	if s.FilterFallbacks() == 0 {
		t.Error("expected some faulted maplet probes")
	}
	if s.Device().ReplicaReads() == 0 {
		t.Error("expected some reads recovered from the replica")
	}
}

// TestGetBatchConcurrentCharges runs GetBatch from two goroutines at
// once over disjoint halves of the probe stream: with the batch's
// charges added once per call, the summed counters must still equal
// what scalar Gets charge for the same keys, and every answer must
// match.
func TestGetBatchConcurrentCharges(t *testing.T) {
	const n = 3000
	for _, pol := range []FilterPolicy{PolicyBloom, PolicyMaplet} {
		scalar := buildBatchStore(Options{Policy: pol}, n)
		batch := buildBatchStore(Options{Policy: pol}, n)
		probes := batchProbes(n)
		reads0, probes0 := batch.Device().Reads(), batch.FilterProbes()
		sreads0, sprobes0 := scalar.Device().Reads(), scalar.FilterProbes()
		values := make([]uint64, len(probes))
		found := make([]bool, len(probes))
		half := len(probes) / 2
		done := make(chan struct{})
		for _, part := range [][2]int{{0, half}, {half, len(probes)}} {
			go func(lo, hi int) {
				defer func() { done <- struct{}{} }()
				for at := lo; at < hi; at += 256 {
					end := min(at+256, hi)
					batch.GetBatch(probes[at:end], values[at:end], found[at:end])
				}
			}(part[0], part[1])
		}
		<-done
		<-done
		for i, k := range probes {
			v, ok := scalar.Get(k)
			if found[i] != ok || (ok && values[i] != v) {
				t.Fatalf("policy %d key %d: batch (%d,%v) vs scalar (%d,%v)", pol, k, values[i], found[i], v, ok)
			}
		}
		if got, want := batch.Device().Reads()-reads0, scalar.Device().Reads()-sreads0; got != want {
			t.Errorf("policy %d: concurrent batch reads %d, scalar %d", pol, got, want)
		}
		if got, want := batch.FilterProbes()-probes0, scalar.FilterProbes()-sprobes0; got != want {
			t.Errorf("policy %d: concurrent batch filter probes %d, scalar %d", pol, got, want)
		}
	}
}

// TestMapletGetBatchCandidateOrder plants maplet entries that a
// fingerprint collision or a mid-flight remap would leave, and checks
// the batch kernel probes them exactly as the scalar path does: newest
// first, stopping at the first hit, each run once, and falling back
// when a run is unknown. The planted keys are
//
//   - deep: a stray candidate in a newer run than its own (2 reads);
//   - edge: the same, but the key lies outside the newer run's range,
//     so its span there is empty (2 reads);
//   - shallow: a stray candidate in an older run, never probed (1 read);
//   - triple: strays in the newest and a middle run, so three
//     candidates, two of them spilled (3 reads);
//   - dup: the same stray twice, adjacent duplicates probed once (2 reads);
//   - lost: a stray naming a run the view does not hold (fallback);
//   - orphan: an absent key whose only candidate names such a run
//     (fallback).
func TestMapletGetBatchCandidateOrder(t *testing.T) {
	type plant struct{ key, val uint64 }
	const nKeys = 7
	build := func() (*Store, [nKeys]uint64) {
		s := New(Options{Policy: PolicyMaplet, MemtableSize: 64})
		for i := uint64(0); i < 3000; i++ {
			k := i * 7919 % 3000 // every run spans the key range
			s.Put(k*5, k)
		}
		s.Flush()
		var runs []*run
		for _, level := range s.view.Load().levels {
			runs = append(runs, level...)
		}
		if len(runs) < 3 {
			t.Fatalf("%d runs, want at least 3", len(runs))
		}
		newest, middle, oldest := runs[0], runs[len(runs)/2], runs[len(runs)-1]
		// Keys from the middle of the oldest run lie inside the newer
		// runs' spans, so a stray candidate there costs a search.
		mid := oldest.entries[len(oldest.entries)/2:]
		keys := [nKeys]uint64{
			mid[0].Key, oldest.entries[0].Key, newest.entries[len(newest.entries)/2].Key,
			mid[2].Key, mid[3].Key, mid[1].Key, 2, // 2 is no multiple of 5
		}
		if keys[1] >= newest.minKey() {
			t.Fatalf("edge key %d is inside the newest run's range", keys[1])
		}
		deep, edge, shallow, triple, dup, lost, orphan := keys[0], keys[1], keys[2], keys[3], keys[4], keys[5], keys[6]
		for _, e := range []plant{
			{deep, newest.id}, {edge, newest.id}, {shallow, oldest.id},
			{triple, newest.id}, {triple, middle.id},
			{dup, newest.id}, {dup, newest.id},
			{lost, s.idLimit - 1}, {orphan, s.idLimit - 1},
		} {
			if err := s.maplet.PutExpanding(e.key, e.val); err != nil {
				t.Fatal(err)
			}
		}
		return s, keys
	}
	scalar, planted := build()
	batch, _ := build()
	if n := len(batch.maplet.m.Get(planted[3])); n < 3 {
		t.Fatalf("triple has %d candidates, want at least 3", n)
	}
	for i, want := range []int{2, 2, 1, 3, 2} {
		before := batch.Device().Reads()
		v, f := make([]uint64, 1), make([]bool, 1)
		batch.GetBatch(planted[i:i+1], v, f)
		if got := batch.Device().Reads() - before; !f[0] || v[0] != planted[i]/5 || got != want {
			t.Fatalf("planted key %d: (%d,%v) at %d reads, want (%d,true) at %d", planted[i], v[0], f[0], got, planted[i]/5, want)
		}
	}
	fallbacks := batch.MapletFallbacks()
	v, f := make([]uint64, 1), make([]bool, 1)
	batch.GetBatch(planted[6:7], v, f)
	if f[0] || batch.MapletFallbacks() != fallbacks+1 {
		t.Fatalf("orphan key: found %v after %d fallbacks, want absent after one", f[0], batch.MapletFallbacks()-fallbacks)
	}
	// All of them in one batch, among ordinary hits and misses, charge
	// what scalar Gets charge.
	probes := append(batchProbes(1000), planted[:]...)
	reads0, sreads0 := batch.Device().Reads(), scalar.Device().Reads()
	fallbacks, sfallbacks := batch.MapletFallbacks(), scalar.MapletFallbacks()
	values := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	batch.GetBatch(probes, values, found)
	for i, k := range probes {
		v, ok := scalar.Get(k)
		if found[i] != ok || (ok && values[i] != v) {
			t.Fatalf("key %d: batch (%d,%v) vs scalar (%d,%v)", k, values[i], found[i], v, ok)
		}
	}
	if got, want := batch.Device().Reads()-reads0, scalar.Device().Reads()-sreads0; got != want {
		t.Errorf("batch reads %d, scalar %d", got, want)
	}
	if got, want := batch.MapletFallbacks()-fallbacks, scalar.MapletFallbacks()-sfallbacks; got != 2 || want != 2 {
		t.Errorf("maplet fallbacks: batch %d, scalar %d; want 2 each (lost and orphan)", got, want)
	}
}

// TestSearchBlocks checks the staged search against the scalar one on
// spans of every length up to a few blocks, each starting inside its
// run as a radix bucket does, for present and absent keys, all of a
// span's keys at once and one.
func TestSearchBlocks(t *testing.T) {
	for n := 1; n <= 3*entriesPerBlock; n++ {
		const pad = 3
		seg := make([]Entry, pad, pad+n+pad)
		for i := 0; i < n; i++ {
			seg = append(seg, Entry{Key: uint64(2*i + 1), Value: uint64(i)})
		}
		seg = append(seg, make([]Entry, pad)...)
		for _, keys := range [][2]uint64{{0, uint64(2*n + 1)}, {uint64(n), uint64(n)}} {
			var ps []readRec
			for key := keys[0]; key <= keys[1]; key++ {
				ps = append(ps, readRec{key: key, base: pad, n: uint32(n)})
			}
			searchBlocks(ps, seg)
			for _, p := range ps {
				got := seg[p.base]
				want, wok := search(seg[pad:pad+n], p.key)
				if (got.Key == p.key) != wok || (wok && got != want) || p.n != 1 {
					t.Fatalf("len %d key %d: staged %v (n=%d), scalar (%v,%v)", n, p.key, got, p.n, want, wok)
				}
			}
		}
	}
}

// kvReadFrames builds the served kv_read store in-process — n workload
// keys (value = key) under the given policy, flushed — and 64 256-key
// OpGet frames over it in which every odd key is absent.
func kvReadFrames(n int, policy FilterPolicy) (*Store, [][]uint64) {
	const frame = 256
	s := New(Options{Policy: policy})
	keys := workload.Keys(n, 42)
	for _, k := range keys {
		s.Put(k, k)
	}
	s.Flush()
	miss := workload.DisjointKeys(n, 42)
	frames := make([][]uint64, 64)
	for f := range frames {
		frames[f] = make([]uint64, frame)
		for i := range frames[f] {
			j := uint64(f*frame+i) * 2654435761 % uint64(n)
			if i&1 == 0 {
				frames[f][i] = keys[j]
			} else {
				frames[f][i] = miss[j]
			}
		}
	}
	return s, frames
}

// BenchmarkStoreGetBatch times Store.GetBatch with one caller; ns/key is
// wall time per looked-up key. The maplet rows sweep the store size:
// 2^10 keys sit in the L1 and L2 caches, kv_read's 2^15 in L2, 2^18
// spill past it; the bloom row is kv_write's read path at kv_read's
// shape.
func BenchmarkStoreGetBatch(b *testing.B) {
	for _, c := range []struct {
		policy FilterPolicy
		name   string
		n      int
	}{
		{PolicyMaplet, "maplet", 1 << 10},
		{PolicyMaplet, "maplet", 1 << 15},
		{PolicyMaplet, "maplet", 1 << 18},
		{PolicyBloom, "bloom", 1 << 15},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", c.name, c.n), func(b *testing.B) {
			s, frames := kvReadFrames(c.n, c.policy)
			vals, found := make([]uint64, len(frames[0])), make([]bool, len(frames[0]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.GetBatch(frames[i%len(frames)], vals, found)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames[0])), "ns/key")
		})
	}
}

// BenchmarkStoreGetBatchParallel is BenchmarkStoreGetBatch at kv_read's
// shape with one caller per P (-cpu 2 is the served run's two
// connections), so the store's shared counters and locks are contended
// as in filterd.
func BenchmarkStoreGetBatchParallel(b *testing.B) {
	s, frames := kvReadFrames(1<<15, PolicyMaplet)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		vals, found := make([]uint64, len(frames[0])), make([]bool, len(frames[0]))
		for i := 0; pb.Next(); i++ {
			s.GetBatch(frames[i%len(frames)], vals, found)
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames[0])), "ns/key")
}
