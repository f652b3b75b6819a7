package experiments

import (
	"fmt"
	"runtime"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/xorfilter"
)

// E24: the in-process speed claims (tutorial §2: a blocked Bloom
// filter costs one cache line per probe, and a batch amortises its
// hashing and overlaps its misses) as pairs. A pair is two closures
// over the same data, B's speed-up over A measured by
// metrics.Interleave: about 1 ms of each in turn, 101 times, so a slow
// minute of the host slows both sides of a slice. Ratios of whole
// `go test -bench` runs taken minutes apart spread 47–80 % on a 2-vCPU
// guest.
//
// What gates: allocs/op = 0 on every pair, at every scale; and at full
// scale a one-sided floor, 0.9 × the lowest of seven or eight
// full-scale runs, on each speed-up whose spread over those runs,
// (max − min) / min, is at most 10 % (the run_spread column). The floor
// is one-sided because host noise that slows the scalar side raises a
// ratio, and a floor under the lowest reading still fails a batch
// kernel made 20 % slower. Eight pairs meet the spread rule. The rest
// moved 12–50 % with the state of the shared host, some both ways.
// Likely causes, not measured: at 2^24 keys a filter is a fraction of
// the host's L3, so the neighbours' share of it decides whether a
// scalar probe waits on DRAM; and the AVX-512 kernels may change the
// clock. They are listed with their spread, not gated. The wire and
// JSON codec rounds are absolute ns/key, context that never gates.

const (
	e24Keys     = 1 << 24 // the filters behind the headline pairs: tens of MB, past every cache
	e24Resident = 1 << 14 // a 24 KB blocked filter: the kernels' own cost, no misses
	e24Probes   = 1 << 20 // probe stream length (even: members, odd: absent), cycled
	e24Fresh    = 1 << 16 // absent keys the insert pairs cycle through
)

// e24Pair is one committed claim: B's speed-up over A, on a fixture
// that the pairs next to it in e24Pairs share.
type e24Pair struct {
	name    string
	a, b    string
	fixture string  // pairs naming one fixture share one build
	batch   int     // keys per call of either side
	floor   float64 // B's speed-up at full scale: 0.9 × the lowest of the measured runs
	spread  float64 // (max − min) / min of the speed-up over those runs
	vector  bool    // B is the AVX-512 kernel, measured only where the CPU has it
	ops     func(fx *e24Fixture, batch int) (a, b func())
}

// e24Pairs is every pair, grouped by fixture; a fixture's insert pairs
// come after its probe pairs, which then see the filter as built.
var e24Pairs = []e24Pair{
	{name: "bloom/contains_batch", a: "scalar", b: "batch", fixture: "bloom", batch: 256, floor: 1.18, spread: 0.165, ops: e24Contains},
	{name: "blocked/contains_batch", a: "scalar", b: "batch", fixture: "blocked", batch: 256, floor: 3.68, spread: 0.245, ops: e24Contains},
	{name: "blocked/contains_avx512", a: "go", b: "avx512", fixture: "blocked", batch: server.MaxWireBatch, vector: true, floor: 1.46, spread: 0.186, ops: e24ContainsKernel},
	{name: "blocked/insert_batch", a: "scalar", b: "batch", fixture: "blocked", batch: server.MaxWireBatch, floor: 2.50, spread: 0.500, ops: e24Insert},
	{name: "blocked/insert_avx512", a: "go", b: "avx512", fixture: "blocked", batch: server.MaxWireBatch, vector: true, floor: 1.21, spread: 0.461, ops: e24InsertKernel},
	{name: "blocked_resident/contains_avx512", a: "go", b: "avx512", fixture: "blocked_resident", batch: server.MaxWireBatch, vector: true, floor: 2.71, spread: 0.336, ops: e24ContainsKernel},
	{name: "blocked_resident/contains_one", a: "scalar", b: "batch", fixture: "blocked_resident", batch: 1, floor: 0.80, spread: 0.063, ops: e24Contains},
	{name: "blocked_resident/insert_batch", a: "scalar", b: "batch", fixture: "blocked_resident", batch: server.MaxWireBatch, floor: 2.09, spread: 0.389, ops: e24Insert},
	{name: "blocked_resident/insert_avx512", a: "go", b: "avx512", fixture: "blocked_resident", batch: server.MaxWireBatch, vector: true, floor: 1.69, spread: 0.324, ops: e24InsertKernel},
	{name: "blocked_resident/insert_one", a: "scalar", b: "batch", fixture: "blocked_resident", batch: 1, floor: 0.86, spread: 0.099, ops: e24Insert},
	{name: "choices/contains_batch", a: "scalar", b: "batch", fixture: "choices", batch: 256, floor: 1.74, spread: 0.153, ops: e24Contains},
	{name: "cuckoo/contains_batch", a: "scalar", b: "batch", fixture: "cuckoo", batch: 256, floor: 1.64, spread: 0.087, ops: e24Contains},
	{name: "quotient/contains_batch", a: "scalar", b: "batch", fixture: "quotient", batch: 256, floor: 1.02, spread: 0.138, ops: e24Contains},
	{name: "xor/contains_batch", a: "scalar", b: "batch", fixture: "xor", batch: 256, floor: 1.61, spread: 0.274, ops: e24Contains},
	{name: "sharded/contains_batch", a: "scalar", b: "batch", fixture: "sharded", batch: 256, floor: 1.72, spread: 0.100, ops: e24Contains},
	// The batch-size sweep: cuckoo filters of a quarter the size at 50 %
	// and 95 % occupancy, where the staged loads pay off once a batch
	// holds enough misses to fill the memory pipeline.
	{name: "cuckoo_occ50/batch_16", a: "scalar", b: "batch", fixture: "cuckoo_occ50", batch: 16, floor: 1.17, spread: 0.118, ops: e24Contains},
	{name: "cuckoo_occ50/batch_64", a: "scalar", b: "batch", fixture: "cuckoo_occ50", batch: 64, floor: 1.32, spread: 0.085, ops: e24Contains},
	{name: "cuckoo_occ50/batch_256", a: "scalar", b: "batch", fixture: "cuckoo_occ50", batch: 256, floor: 1.38, spread: 0.046, ops: e24Contains},
	{name: "cuckoo_occ50/batch_1024", a: "scalar", b: "batch", fixture: "cuckoo_occ50", batch: 1024, floor: 1.41, spread: 0.083, ops: e24Contains},
	{name: "cuckoo_occ95/batch_16", a: "scalar", b: "batch", fixture: "cuckoo_occ95", batch: 16, floor: 1.14, spread: 0.121, ops: e24Contains},
	{name: "cuckoo_occ95/batch_64", a: "scalar", b: "batch", fixture: "cuckoo_occ95", batch: 64, floor: 1.31, spread: 0.125, ops: e24Contains},
	{name: "cuckoo_occ95/batch_256", a: "scalar", b: "batch", fixture: "cuckoo_occ95", batch: 256, floor: 1.39, spread: 0.136, ops: e24Contains},
	{name: "cuckoo_occ95/batch_1024", a: "scalar", b: "batch", fixture: "cuckoo_occ95", batch: 1024, floor: 1.40, spread: 0.087, ops: e24Contains},
}

// e24Fixture is a filter holding n keys, its probe stream and the
// absent keys its insert pairs add.
type e24Fixture struct {
	f      core.BatchFilter
	n      int
	probes []uint64
	fresh  []uint64
}

// e24Build builds the named fixture at cfg's scale, holding keys 0 to
// n−1 of its seed's stream; the resident filter keeps its size at every
// scale. The fixtures' parameters are statically valid, so an error is
// a bug.
func e24Build(name string, cfg Config) *e24Fixture {
	n, seed := cfg.n(e24Keys), uint64(32)
	var f core.BatchFilter
	var err error
	filled := false
	switch name {
	case "bloom":
		f = bloom.New(n, 1.0/1024)
	case "blocked", "blocked_resident":
		if name == "blocked_resident" {
			n = e24Resident
		}
		b := bloom.NewBlocked(n, 12)
		b.Fill(n, workload.Gen(seed))
		f, filled = b, true
	case "choices":
		f = bloom.NewBlockedChoices(n, 12)
	case "cuckoo":
		f = cuckoo.New(n, 13)
	case "quotient":
		q := uint(1)
		for float64(uint64(1)<<q)*0.9 < float64(n) {
			q++
		}
		f = quotient.New(q, 10)
	case "xor":
		f, err = xorfilter.New(workload.Keys(n, seed), 10)
	case "sharded":
		// 16 shards: a 256-key batch puts ~16 keys in each shard's
		// sub-batch, enough for the per-shard batched probe to matter
		// on top of the one-lock-per-shard amortisation.
		f, err = concurrent.NewSharded(4, func(int) core.DeletableFilter { return cuckoo.New(n>>4, 13) })
	case "cuckoo_occ50", "cuckoo_occ95":
		occ := 50
		if name == "cuckoo_occ95" {
			occ = 95
		}
		f, seed, n = cuckoo.New(n/4, 13), uint64(40+occ), n/4*occ/100
	default:
		panic("E24: no fixture " + name)
	}
	if m, ok := f.(core.MutableFilter); ok && err == nil && !filled {
		for i := 0; i < n && err == nil; i++ {
			err = m.Insert(workload.Key(uint64(i), seed))
		}
	}
	if err != nil {
		panic(fmt.Sprintf("E24 fixture %s: %v", name, err))
	}
	fx := &e24Fixture{f: f, n: n, probes: make([]uint64, min(e24Probes, 2*n)), fresh: make([]uint64, e24Fresh)}
	for i := range fx.probes {
		fx.probes[i] = workload.Key(uint64(i/2)+uint64(i&1)<<48, seed) // odd: DisjointKeys' range
	}
	for i := range fx.fresh {
		fx.fresh[i] = workload.Key(uint64(i)+1<<49, seed)
	}
	return fx
}

// e24Cycle hands out consecutive batch-key windows of keys, wrapping
// around. Both sides of a pair take theirs from one cycle: each then
// probes keys the other has not just pulled into the cache, and over
// the slices both see the same stream.
func e24Cycle(keys []uint64, batch int) func() []uint64 {
	at := 0
	return func() []uint64 {
		if at+batch > len(keys) {
			at = 0
		}
		at += batch
		return keys[at-batch : at]
	}
}

var e24Sink bool

func e24Contains(fx *e24Fixture, batch int) (a, b func()) {
	next := e24Cycle(fx.probes, batch)
	out := make([]bool, batch)
	return func() {
			for _, k := range next() {
				e24Sink = fx.f.Contains(k)
			}
		}, func() {
			fx.f.ContainsBatch(next(), out)
		}
}

func e24ContainsKernel(fx *e24Fixture, batch int) (a, b func()) {
	f := fx.f.(*bloom.Blocked)
	goContains, _ := f.GoKernels()
	next := e24Cycle(fx.probes, batch)
	out := make([]bool, batch)
	return func() { goContains(next(), out) }, func() { f.ContainsBatch(next(), out) }
}

func e24Insert(fx *e24Fixture, batch int) (a, b func()) {
	f := fx.f.(*bloom.Blocked)
	next := e24Cycle(fx.fresh, batch)
	return func() {
			for _, k := range next() {
				f.Insert(k)
			}
		}, func() {
			f.InsertBatch(next())
		}
}

func e24InsertKernel(fx *e24Fixture, batch int) (a, b func()) {
	f := fx.f.(*bloom.Blocked)
	_, goInsert := f.GoKernels()
	next := e24Cycle(fx.fresh, batch)
	return func() { goInsert(next()) }, func() { f.InsertBatch(next()) }
}

// eachE24Pair builds each fixture once, in e24Pairs order, and calls
// visit with every pair on it, the fixture's key count and the pair's
// two operations. One fixture is alive at a time.
func eachE24Pair(cfg Config, visit func(p *e24Pair, n int, a, b func())) {
	var fx *e24Fixture
	for i := range e24Pairs {
		p := &e24Pairs[i]
		if i == 0 || p.fixture != e24Pairs[i-1].fixture {
			fx = nil
			runtime.GC()
			fx = e24Build(p.fixture, cfg)
			runtime.GC()
		}
		a, b := p.ops(fx, p.batch)
		visit(p, fx.n, a, b)
	}
}

// ClaimPairs builds E24's fixtures at cfg's scale and calls visit with
// each pair's name, the names of its two sides and their operations,
// so a benchmark runs exactly the closures E24 measures.
func ClaimPairs(cfg Config, visit func(pair, aName, bName string, a, b func())) {
	eachE24Pair(cfg, func(p *e24Pair, _ int, a, b func()) { visit(p.name, p.a, p.b, a, b) })
}

// e24Gate is the spread under which a speed-up gates at full scale.
const e24Gate = 0.10

func runE24(cfg Config) []*metrics.Table {
	full := cfg.Scale == 0 || cfg.Scale >= 1
	slices, slice := 101, time.Millisecond
	if !full {
		slices, slice = 21, 200*time.Microsecond
	}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	vector := bloom.HasVectorKernels()

	pairs := metrics.NewTable(fmt.Sprintf("E24: interleaved pairs, B's speed-up over A (%d slices of ~%v a side)", slices, slice),
		"pair", "a", "b", "keys", "batch", "a_ns_per_key", "b_ns_per_key", "speedup", "iqr", "run_spread", "allocs_per_op").
		Named("pairs").With("slices", slices).With("avx512", vector)
	acc := metrics.NewAcceptance("E24: acceptance")
	eachE24Pair(cfg, func(p *e24Pair, n int, a, b func()) {
		allocs := max(metrics.AllocsPerOp(100, a), metrics.AllocsPerOp(100, b))
		ns := metrics.Interleave(slices, slice, clock, a, b)
		speedup, iqr := metrics.Ratio(ns[0], ns[1])
		_, aNs, _ := metrics.Quartiles(ns[0])
		_, bNs, _ := metrics.Quartiles(ns[1])
		bSide := p.b
		if p.vector && !vector {
			bSide = "go (no AVX-512)"
		}
		pairs.AddRow(p.name, p.a, bSide, n, p.batch, aNs/float64(p.batch), bNs/float64(p.batch), speedup, iqr, p.spread, allocs)
		acc.AtLeast(p.name+"/speedup", speedup, p.floor, full && p.spread <= e24Gate && (vector || !p.vector))
		acc.AtMost(p.name+"/allocs", allocs, 0, true)
	})

	codec := metrics.NewTable("E24: codec rounds, absolute ns per key (context, never gates)",
		"round", "keys", "ns_per_key", "iqr", "allocs_per_op", "gates").Named("codec")
	for _, r := range server.CodecRounds() {
		op := func() {
			if err := r.Run(); err != nil {
				panic(err) // the rounds' bodies are valid
			}
		}
		allocs := metrics.AllocsPerOp(100, op)
		q1, ns, q3 := metrics.Quartiles(metrics.Interleave(slices, slice, clock, op)[0])
		codec.AddRow(r.Name, r.Keys, ns/float64(r.Keys), (q3-q1)/ns, allocs, false)
	}
	return []*metrics.Table{pairs, codec, acc}
}
