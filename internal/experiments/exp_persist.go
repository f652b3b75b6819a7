package experiments

import (
	"bytes"
	"os"
	"strconv"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/xorfilter"
)

// runE17 measures the persistence layer: (a) encode/decode throughput
// per registered filter type, (b) the headline durability win —
// reloading a static filter from its file versus rebuilding it from
// the key set — and (c) the same comparison for a whole LSM store.
// The tutorial's feature list puts serialization among the properties
// future filters need; the numbers here show why: a build is a
// hashing-and-construction pass over every key while a reload is a
// sequential read plus validation, so reload wins by an order of
// magnitude and the gap widens with filter size.
func runE17(cfg Config) []*metrics.Table {
	return []*metrics.Table{e17Throughput(cfg), e17ReloadVsRebuild(cfg), e17StoreReopen(cfg)}
}

// e17Throughput encodes and decodes each filter type, reporting MB/s.
func e17Throughput(cfg Config) *metrics.Table {
	n := cfg.n(1000000)
	keys := workload.Keys(n, 71)

	build := []struct {
		name string
		make func() core.Persistent
	}{
		{"bloom", func() core.Persistent {
			f := bloom.NewBits(n, 10)
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}},
		{"blocked", func() core.Persistent {
			f := bloom.NewBlocked(n, 10)
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}},
		{"cuckoo", func() core.Persistent {
			f := cuckoo.New(n, 12)
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}},
		{"quotient", func() core.Persistent {
			f := quotient.NewForCapacity(n, 1.0/4096)
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}},
		{"xor", func() core.Persistent {
			f, err := xorfilter.New(keys, 12)
			if err != nil {
				panic(err)
			}
			return f
		}},
		{"sharded(cuckoo,8)", func() core.Persistent {
			f, err := concurrent.NewSharded(3, func(int) core.DeletableFilter {
				return cuckoo.New(n/8+64, 12)
			})
			if err != nil {
				panic(err)
			}
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}},
	}

	t := metrics.NewTable("E17a: codec throughput ("+strconv.Itoa(n)+" keys)",
		"filter", "encoded_MB", "encode_ms", "encode_MB/s", "decode_ms", "decode_MB/s")
	for _, b := range build {
		f := b.make()
		var buf bytes.Buffer
		start := time.Now()
		if _, err := core.Save(&buf, f); err != nil {
			panic(err)
		}
		encSec := time.Since(start).Seconds()
		mb := float64(buf.Len()) / (1 << 20)

		raw := buf.Bytes()
		start = time.Now()
		if _, err := core.Load(codec.NewDec(raw)); err != nil {
			panic(err)
		}
		decSec := time.Since(start).Seconds()
		t.AddRow(b.name, mb, encSec*1e3, mb/encSec, decSec*1e3, mb/decSec)
	}
	return t
}

// e17ReloadVsRebuild times rebuilding a static XOR filter from its
// keys against reloading it from a saved file.
func e17ReloadVsRebuild(cfg Config) *metrics.Table {
	n := cfg.n(1 << 24)
	keys := workload.Keys(n, 73)

	start := time.Now()
	f, err := xorfilter.New(keys, 12)
	if err != nil {
		panic(err)
	}
	buildSec := time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "bbf-e17-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := dir + "/xor.bbf"
	file, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if _, err := core.Save(file, f); err != nil {
		panic(err)
	}
	if err := file.Close(); err != nil {
		panic(err)
	}

	start = time.Now()
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	g, err := core.Load(codec.NewDec(raw))
	if err != nil {
		panic(err)
	}
	reloadSec := time.Since(start).Seconds()
	if !g.Contains(keys[0]) {
		panic("e17: reloaded filter lost a key")
	}

	t := metrics.NewTable("E17b: reload vs rebuild, xor filter ("+strconv.Itoa(n)+" keys)",
		"path", "seconds", "speedup")
	t.AddRow("rebuild_from_keys", buildSec, 1.0)
	t.AddRow("reload_from_file", reloadSec, buildSec/reloadSec)
	return t
}

// e17StoreReopen times rebuilding an LSM store with Puts against
// reopening its saved directory.
func e17StoreReopen(cfg Config) *metrics.Table {
	n := cfg.n(400000)
	keys := workload.Keys(n, 79)

	start := time.Now()
	s := lsm.New(lsm.Options{Policy: lsm.PolicyBloom, MemtableSize: 4096})
	for i, k := range keys {
		s.Put(k, uint64(i))
	}
	buildSec := time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "bbf-e17-lsm-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := s.Save(dir); err != nil {
		panic(err)
	}

	start = time.Now()
	reopened, err := lsm.OpenStore(dir, lsm.Options{})
	if err != nil {
		panic(err)
	}
	reopenSec := time.Since(start).Seconds()
	reopenedReads, reopenedWrites := reopened.Device().Reads(), reopened.Device().Writes()
	if v, ok := reopened.Get(keys[0]); !ok || v != 0 {
		panic("e17: reopened store lost a key")
	}

	t := metrics.NewTable("E17c: reopen vs rebuild, LSM store ("+strconv.Itoa(n)+" entries, PolicyBloom)",
		"path", "seconds", "speedup", "runs", "reads", "writes")
	t.AddRow("rebuild_with_puts", buildSec, 1.0, s.Runs(), s.Device().Reads(), s.Device().Writes())
	t.AddRow("reopen_from_disk", reopenSec, buildSec/reopenSec, reopened.Runs(), reopenedReads, reopenedWrites)
	return t
}
