package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// params are the settings one invocation fixes for every workload.
type params struct {
	seed    uint64
	warm    time.Duration // discarded
	measure time.Duration // cut into one-second slices
	smoke   bool          // small filters and short replays
	conns   int           // closed-loop connections: min(2, nproc)
}

func defaultConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// workload is one traffic mix and the server set-up it runs against.
// Every filterd flag not listed in build/serve stays at its default.
type workload struct {
	name    string
	primary reqKind // the request type p50_us and the tail are taken over
	n       uint64  // keys held when set-up ends: filter keys, preloaded keys or seeded entries
	smokeN  uint64
	// firstReqs is how many requests of a fresh stream set-up sends and
	// verifies before it counts the server as answering.
	firstReqs int
	// replayN is the fixed request count of one traced replay pass, per
	// caller.
	replayN int
	build   func(dir string, n, seed uint64) []string // `filterd build` flags, nil if nothing is built
	serve   func(dir string, n uint64) []string       // `filterd serve` flags
	preload bool                                      // insert presentKey(0..n) over /v1/insert at set-up
	store   bool                                      // serves an LSM store directory
	stream  func(seed, n uint64, conn, conns int) stream
}

func (w *workload) keys(p params) uint64 {
	if p.smoke {
		return w.smokeN
	}
	return w.n
}

func (w *workload) replayCount(p params) int {
	if p.smoke {
		return w.replayN / 10
	}
	return w.replayN
}

var workloads = []*workload{
	{
		// Kernel + wire: a 24 MiB blocked Bloom filter (larger than the
		// cache) probed by full binary frames.
		name: "probe_batch", primary: kindProbe, n: 1 << 24, smokeN: 1 << 16, firstReqs: 1, replayN: 3000,
		build: func(dir string, n, seed uint64) []string {
			return []string{"build", "-o", filepath.Join(dir, "f.bbf"), "-n", fmt.Sprint(n), "-bits", "12", "-seed", fmt.Sprint(seed)}
		},
		serve: func(dir string, _ uint64) []string { return []string{"-filter", filepath.Join(dir, "f.bbf")} },
		stream: func(seed, n uint64, conn, _ int) stream {
			return &probeBatchStream{seed: seed, n: n, batch: 4096, rng: newRNG(seed, "probe_batch", conn)}
		},
	},
	{
		// HTTP + JSON + admission + coalescer: point probes of a
		// cache-resident sharded filter of capacity 2n, n keys preloaded,
		// with point inserts beside them.
		name: "probe_point", primary: kindContains, n: 1 << 19, smokeN: 1 << 15, firstReqs: 1, replayN: 1500,
		serve: func(_ string, n uint64) []string {
			return []string{"-n", fmt.Sprint(2 * n), "-bits", "12", "-log-shards", "2"}
		},
		preload: true,
		stream: func(seed, n uint64, conn, conns int) stream {
			return &probePointStream{seed: seed, preload: n, conn: uint64(conn), conns: uint64(conns), rng: newRNG(seed, "probe_point", conn)}
		},
	},
	{
		// lsm read path over the maplet-first index: OpGet frames of one
		// core.BatchChunk against a static seeded store.
		name: "kv_read", primary: kindGet, n: 1 << 15, smokeN: 1 << 13, firstReqs: 1, replayN: 5000, store: true,
		build: func(dir string, n, seed uint64) []string {
			return []string{"build", "-store", filepath.Join(dir, "kv"), "-policy", "maplet", "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed)}
		},
		serve: func(dir string, _ uint64) []string {
			return []string{"-store", filepath.Join(dir, "kv"), "-durability", "group"}
		},
		stream: func(seed, n uint64, conn, _ int) stream {
			return &kvReadStream{seed: seed, n: n, batch: 256, rng: newRNG(seed, "kv_read", conn)}
		},
	},
	{
		// wal + memtable + flush/compaction with reads beside the writes,
		// on a store that starts empty. The empty store is built with
		// `-policy bloom -n 0`: `filterd serve -store` on a bare directory
		// opens it with PolicyNone, no filters at all. Durability is
		// buffered: the store directory is on the checkout's disk, and a
		// per-put fsync there is 125 us of host-dependent wait that made
		// put p50 swing 10-33 % between runs (see README.md).
		name: "kv_write", primary: kindPut, firstReqs: 2, replayN: 3000, store: true,
		build: func(dir string, _, seed uint64) []string {
			return []string{"build", "-store", filepath.Join(dir, "kv"), "-policy", "bloom", "-n", "0", "-seed", fmt.Sprint(seed)}
		},
		serve: func(dir string, _ uint64) []string {
			return []string{"-store", filepath.Join(dir, "kv"), "-durability", "buffered"}
		},
		stream: func(seed, _ uint64, conn, conns int) stream { return newKVWriteStream(seed, conn, conns) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
