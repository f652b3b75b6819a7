package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/server"
	"beyondbloom/internal/wal"
)

// The traced replay pushes the workload's seeded request stream, a
// fixed number of requests from as many closed-loop callers as the
// served run has connections, through nested shells of the layers'
// public functions inside this process:
//
//	P0  the raw backend call (core.ContainsBatch, Sharded.Contains/
//	    Insert, Store.GetBatch, Store.Apply)
//	P1  the server.Engine method around it (admission, coalescer)
//	P2  the handler body played by the harness: wire decode, the
//	    Engine call, wire encode, with a timestamp between each
//	P3  server.Server.ServeHTTP with an in-memory request and recorder
//	P4  a real loopback round trip to an in-process http.Server
//
// Each request goes through one shell, drawn uniformly by a seeded
// generator, so the five passes are interleaved in time and see the
// same key distribution, cache state, store state and machine noise,
// and concurrent callers do not fall into lock-step with each other's
// shells; every request runs exactly once, which lets writes share one
// evolving store. Each call records a span. A layer's self time is the
// median of its pass minus the median of the pass inside it, so the
// self times telescope to the P4 round trip by construction.
const numPasses = 5

var passNames = [numPasses]string{"P0", "P1", "P2", "P3", "P4"}

// spanName is the public function a pass times, per request kind.
var spanName = [numPasses][numKinds]string{
	{"core.ContainsBatch", "lsm.Store.GetBatch", "concurrent.Sharded.Contains", "concurrent.Sharded.Insert", "lsm.Store.Apply"},
	{"server.Engine.ContainsBatch", "server.Engine.GetBatch", "server.Engine.Contains", "server.Engine.Insert", "server.Engine.Apply"},
	{"handler.probe", "handler.probe", "handler.contains", "handler.insert", "handler.put"},
	{"server.Server.ServeHTTP", "server.Server.ServeHTTP", "server.Server.ServeHTTP", "server.Server.ServeHTTP", "server.Server.ServeHTTP"},
	{"http.roundtrip", "http.roundtrip", "http.roundtrip", "http.roundtrip", "http.roundtrip"},
}

// replica is the in-process twin of what `filterd serve` assembles for
// a workload: the serving filter, the store if any, and the Engine and
// Server over them, built by the same constructors with the same
// options.
type replica struct {
	filter core.Filter
	store  *lsm.Store
	engine *server.Engine
	srv    *server.Server
}

func (r *replica) close() error {
	r.engine.Close()
	if r.store != nil {
		return r.store.Close()
	}
	return nil
}

// freshSharded is cmdServe's built-in filter: 2^logShards blocked
// Bloom shards sized for capacity keys at 12 bits each.
func freshSharded(capacity uint64) (*concurrent.Sharded, error) {
	const logShards = 2
	perShard := int(capacity>>logShards) + 1
	return concurrent.NewShardedMutable(logShards, func(int) core.MutableFilter {
		return bloom.NewBlocked(perShard, 12)
	})
}

// newReplica builds the workload's server state in-process under dir,
// recording what set-up itself costs each layer (bloom insert, .bbf
// save/load, store seeding and open).
func (e *env) newReplica(w *workload, dir string, m *metrics) (*replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := w.keys(e.p)
	r := &replica{}
	var err error
	switch w.name {
	case "probe_batch":
		f := bloom.NewBlocked(int(n)+1, 12)
		start := time.Now()
		for i := uint64(0); i < n; i++ {
			if err := f.Insert(presentKey(e.p.seed, i)); err != nil {
				return nil, err
			}
		}
		m.set("bloom.insert_ns_per_key", float64(time.Since(start).Nanoseconds())/float64(n))
		path := filepath.Join(dir, "f.bbf")
		start = time.Now()
		size, err := saveFilter(path, f)
		if err != nil {
			return nil, err
		}
		m.set("core.save_mb_s", float64(size)/1e6/time.Since(start).Seconds())
		start = time.Now()
		if r.filter, err = server.LoadFilterFile(path); err != nil {
			return nil, err
		}
		m.set("core.load_mb_s", float64(size)/1e6/time.Since(start).Seconds())
	case "probe_point":
		sh, err := freshSharded(2 * n)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			if err := sh.Insert(presentKey(e.p.seed, i)); err != nil {
				return nil, err
			}
		}
		r.filter = sh
	case "kv_read":
		// What `filterd build -store -policy maplet` does, timed.
		seedDir := filepath.Join(dir, "kv")
		st, err := lsm.NewStore(lsm.Options{Policy: lsm.PolicyMaplet})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := uint64(0); i < n; i++ {
			k := presentKey(e.p.seed, i)
			st.Put(k, k)
		}
		st.Flush()
		m.set("lsm.seed_us_per_key", us(float64(time.Since(start).Nanoseconds()))/float64(n))
		if err := st.Save(seedDir); err != nil {
			return nil, err
		}
		start = time.Now()
		if r.store, err = lsm.OpenStore(seedDir, lsm.Options{Background: true, Durability: lsm.DurabilityGroup}); err != nil {
			return nil, err
		}
		m.set("lsm.open_s", time.Since(start).Seconds())
	case "kv_write":
		// `filterd build -store -policy bloom -n 0`, then serve's open.
		storeDir := filepath.Join(dir, "kv")
		st, err := lsm.NewStore(lsm.Options{Policy: lsm.PolicyBloom})
		if err != nil {
			return nil, err
		}
		if err := st.Save(storeDir); err != nil {
			return nil, err
		}
		if r.store, err = lsm.OpenStore(storeDir, lsm.Options{Background: true, Durability: lsm.DurabilityBuffered}); err != nil {
			return nil, err
		}
	}
	if r.filter == nil {
		if r.filter, err = freshSharded(1 << 20); err != nil {
			return nil, err
		}
	}
	if r.engine, err = server.NewEngine(r.filter, r.store, server.Config{}); err != nil {
		return nil, err
	}
	r.srv = server.New(r.engine)
	return r, nil
}

func saveFilter(path string, f core.Persistent) (int64, error) {
	file, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(file)
	size, err := core.Save(bw, f)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return size, err
}

// caller is one closed-loop caller of the replay with its scratch.
type caller struct {
	rep   *replica
	st    stream
	req   request
	body  []byte
	dec   server.Request
	found []bool
	vals  []uint64
	out   []byte
	jbuf  bytes.Buffer
	ans   answer
	cl    *client // P4
	spans [numPasses]*spanBuf
	t     tally

	dur      [numPasses][numKinds][]int64 // call durations
	decodeNS [numKinds]int64              // P2: time in wire decode, by kind
	encodeNS [numKinds]int64              // P2: time in wire encode, by kind
	stallNS  int64                        // P0: time in calls longer than stallThreshold
	keys     [numKinds]int                // keys or entries one request of the kind carries
	serial   uint64
}

func (c *caller) size(n int) {
	if cap(c.found) < n {
		c.found = make([]bool, n)
		c.vals = make([]uint64, n)
	}
	c.found, c.vals = c.found[:n], c.vals[:n]
}

// backend is P0: the raw call the Engine method wraps.
func (c *caller) backend() ([]bool, []uint64, error) {
	r := &c.req
	c.size(len(r.keys))
	switch r.kind {
	case kindProbe:
		core.ContainsBatch(c.rep.filter, r.keys, c.found)
		return c.found, nil, nil
	case kindContains:
		c.found[0] = c.rep.filter.Contains(r.keys[0])
		return c.found, nil, nil
	case kindInsert:
		return nil, nil, c.rep.filter.(*concurrent.Sharded).Insert(r.keys[0])
	case kindGet:
		c.rep.store.GetBatch(r.keys, c.vals, c.found)
		return c.found, c.vals, nil
	}
	return nil, nil, c.rep.store.Apply(r.entries...)
}

// engineCall is P1: the Engine method the handler calls, on the given
// keys/entries (P2 passes the decoded ones).
func (c *caller) engineCall(kind reqKind, keys []uint64, entries []lsm.Entry) ([]bool, []uint64, error) {
	e := c.rep.engine
	c.size(len(keys))
	switch kind {
	case kindProbe:
		return c.found, nil, e.ContainsBatch(keys, c.found)
	case kindContains:
		ok, err := e.Contains(context.Background(), keys[0])
		c.found[0] = ok
		return c.found, nil, err
	case kindInsert:
		return nil, nil, e.Insert(keys[0])
	case kindGet:
		return c.found, c.vals, e.GetBatch(keys, c.vals, c.found)
	}
	return nil, nil, e.Apply(entries...)
}

// putBody mirrors the JSON shape handlePut parses.
type putBody struct {
	Entries []struct {
		Key       uint64 `json:"key"`
		Value     uint64 `json:"value"`
		Tombstone bool   `json:"tombstone"`
	} `json:"entries"`
}

// played is P2: the handler body with a timestamp at each boundary —
// decode the wire body, call the Engine, encode the answer — using the
// same public wire functions the real handlers use.
func (c *caller) played(trace uint64) ([]bool, []uint64, error) {
	kind := c.req.kind
	t0 := time.Now()
	var entries []lsm.Entry
	var err error
	switch kind {
	case kindProbe, kindGet:
		err = server.DecodeBinaryRequest(c.body, &c.dec)
	case kindContains, kindInsert:
		err = server.DecodeJSONKeys(server.OpContains, c.body, &c.dec)
	default:
		var pb putBody
		if err = json.Unmarshal(c.body, &pb); err == nil {
			entries = make([]lsm.Entry, len(pb.Entries))
			for i, e := range pb.Entries {
				entries[i] = lsm.Entry{Key: e.Key, Value: e.Value, Tombstone: e.Tombstone}
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	found, vals, err := c.engineCall(kind, c.dec.Keys, entries)
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	switch kind {
	case kindProbe:
		c.out = server.AppendBinaryResponse(c.out[:0], server.OpContains, found, nil)
	case kindGet:
		c.out = server.AppendBinaryResponse(c.out[:0], server.OpGet, found, vals)
	case kindContains:
		c.jbuf.Reset()
		json.NewEncoder(&c.jbuf).Encode(map[string]bool{"found": found[0]})
		c.out = append(c.out[:0], c.jbuf.Bytes()...)
	default:
		c.jbuf.Reset()
		json.NewEncoder(&c.jbuf).Encode(map[string]bool{"ok": true})
		c.out = append(c.out[:0], c.jbuf.Bytes()...)
	}
	t3 := time.Now()
	c.decodeNS[kind] += int64(t1.Sub(t0))
	c.encodeNS[kind] += int64(t3.Sub(t2))
	c.spans[2].add(trace, 2, 1, "server.wire.decode", t0, t1)
	c.spans[2].add(trace, 3, 1, spanName[1][kind], t1, t2)
	c.spans[2].add(trace, 4, 1, "server.wire.encode", t2, t3)
	// The client's decoder checks the bytes the handler would send.
	return c.ans.decode(kind, c.out)
}

// step runs the caller's next request through one pass and verifies
// the answer. Whatever a pass needs besides the timed call — the wire
// body, the in-memory request and recorder — is prepared before the
// clock starts.
func (c *caller) step(pass int) error {
	c.st.next(&c.req)
	kind := c.req.kind
	c.keys[kind] = c.req.size()
	trace := c.serial
	c.serial++
	var (
		found      []bool
		vals       []uint64
		err        error
		start, end time.Time
	)
	if pass >= 2 {
		c.body = c.req.appendBody(c.body[:0])
	}
	switch pass {
	case 0:
		start = time.Now()
		found, vals, err = c.backend()
		end = time.Now()
	case 1:
		start = time.Now()
		found, vals, err = c.engineCall(kind, c.req.keys, c.req.entries)
		end = time.Now()
	case 2:
		start = time.Now()
		found, vals, err = c.played(trace)
		end = time.Now()
	case 3:
		hr := httptest.NewRequest("POST", c.req.path(), bytes.NewReader(c.body))
		hr.Header.Set("Content-Type", c.req.contentType())
		rec := httptest.NewRecorder()
		start = time.Now()
		c.rep.srv.ServeHTTP(rec, hr)
		end = time.Now()
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		} else {
			found, vals, err = c.ans.decode(kind, rec.Body.Bytes())
		}
	default:
		c.cl.req = c.req
		found, vals, err = c.cl.roundTrip()
		start, end = c.cl.t0, c.cl.t1
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", passNames[pass], kindNames[kind], err)
	}
	c.st.verify(&c.req, found, vals, &c.t)
	d := end.Sub(start)
	c.dur[pass][kind] = append(c.dur[pass][kind], int64(d))
	if pass == 0 && d > stallThreshold {
		c.stallNS += int64(d)
	}
	c.spans[pass].add(trace, 1, 0, spanName[pass][kind], start, end)
	return nil
}

// replayResult is what the interleaved passes measured, pooled over
// the callers.
type replayResult struct {
	median   [numPasses][numKinds]float64 // ns per call
	count    [numPasses][numKinds]int
	keys     [numKinds]int // keys or entries per request of the kind
	decodeNS [numKinds]int64
	encodeNS [numKinds]int64
	stallNS  int64
	mallocs  float64 // heap allocations per P3 request
	gcPause  time.Duration
	wrong    tally
	streams  []stream
}

// runReplay drives conns concurrent closed-loop callers, 5*count
// requests each, through the interleaved passes against rep.
func (e *env) runReplay(w *workload, rep *replica, count int, epoch time.Time) (*replayResult, []*spanBuf, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: rep.srv}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()

	n := w.keys(e.p)
	callers := make([]*caller, e.p.conns)
	var bufs []*spanBuf
	for i := range callers {
		c := &caller{rep: rep, st: w.stream(e.p.seed, n, i, len(callers)), cl: &client{addr: ln.Addr().String()}}
		defer c.cl.close()
		for pass := range c.spans {
			c.spans[pass] = newSpanBuf(epoch, passNames[pass], spanLimit)
			bufs = append(bufs, c.spans[pass])
		}
		callers[i] = c
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	errs := make([]error, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			shell := newRNG(e.p.seed, "replay-shell", i)
			for j := 0; j < count*numPasses && errs[i] == nil; j++ {
				errs[i] = c.step(int(shell.below(numPasses)))
			}
		}(i, c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	res := &replayResult{gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs)}
	for i, c := range callers {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		res.streams = append(res.streams, c.st)
	}

	// Heap allocations of the whole in-process handler path, from a
	// short single-caller burst of P3 alone.
	burst := count/10 + 1
	runtime.ReadMemStats(&before)
	for j := 0; j < burst; j++ {
		if err := callers[0].step(3); err != nil {
			return nil, nil, err
		}
	}
	runtime.ReadMemStats(&after)
	res.mallocs = float64(after.Mallocs-before.Mallocs) / float64(burst)

	for pass := 0; pass < numPasses; pass++ {
		for k := 0; k < int(numKinds); k++ {
			pooled := recorded()
			for _, c := range callers {
				pooled.RecordAll(c.dur[pass][k])
			}
			res.count[pass][k] = pooled.Count()
			res.median[pass][k] = float64(pooled.Percentile(50))
		}
	}
	for _, c := range callers {
		res.wrong.add(&c.t)
		res.stallNS += c.stallNS
		res.keys = c.keys
		for k := range c.decodeNS {
			res.decodeNS[k] += c.decodeNS[k]
			res.encodeNS[k] += c.encodeNS[k]
		}
	}
	return res, bufs, nil
}

// tracedReplay runs the interleaved passes for one workload, sets the
// per-layer metrics they yield and prints the layer budget. served is
// the served run of the same invocation, which the P4 round trip is
// compared with. It returns the requests attempted and the wrong
// answers among them.
func (e *env) tracedReplay(w *workload, m *metrics, served *servedResult) (attempted, wrong int64, bufs []*spanBuf, err error) {
	dir := filepath.Join(e.sb.dir, w.name+"-replay")
	defer os.RemoveAll(dir)
	epoch := time.Now()
	rep, err := e.newReplica(w, dir, m)
	if err != nil {
		return 0, 0, nil, err
	}
	res, bufs, err := e.runReplay(w, rep, w.replayCount(e.p), epoch)
	if err != nil {
		rep.close()
		return 0, 0, nil, err
	}
	e.siblings(w, rep, res, m)
	if err := rep.close(); err != nil {
		return 0, 0, nil, err
	}
	for pass := range res.count {
		for _, n := range res.count[pass] {
			attempted += int64(n)
		}
	}
	if res.wrong.wrong > 0 {
		fmt.Printf("  WRONG ANSWER in the traced replay of %s: %s\n", w.name, res.wrong.detail)
	}

	// Self times, by telescoping the pass medians of the primary kind.
	prim := w.primary
	med := func(pass int, kind reqKind) float64 { return res.median[pass][kind] }
	perKey := func(ns float64, kind reqKind) float64 { return ns / float64(res.keys[kind]) }
	m.set("http.transport_us_per_req", us(med(4, prim)-med(3, prim)))
	m.set("http.handler_us_per_req", us(med(3, prim)-med(2, prim)))
	var wireKeys, decodeNS, encodeNS, jsonNS float64
	var jsonReqs int
	for k := reqKind(0); k < numKinds; k++ {
		reqs := res.count[2][k]
		if reqs == 0 {
			continue
		}
		if k == kindProbe || k == kindGet {
			wireKeys += float64(res.keys[k] * reqs)
			decodeNS += float64(res.decodeNS[k])
			encodeNS += float64(res.encodeNS[k])
		} else {
			jsonNS += float64(res.decodeNS[k] + res.encodeNS[k])
			jsonReqs += reqs
		}
	}
	m.ratio("server.wire.decode_ns_per_key", decodeNS, wireKeys)
	m.ratio("server.wire.encode_ns_per_key", encodeNS, wireKeys)
	m.ratio("server.wire.json_us_per_req", us(jsonNS), float64(jsonReqs))
	direct := prim
	if prim == kindContains {
		direct = kindInsert // the point workload's only uncoalesced Engine path
		m.set("server.coalesce.wait_us_per_req", us(med(1, prim)-med(0, prim)))
	} else {
		m.set("server.coalesce.wait_us_per_req", 0)
	}
	m.set("server.engine.self_ns_per_req", med(1, direct)-med(0, direct))
	switch w.name {
	case "probe_batch":
		m.set("bloom.batch_ns_per_key", perKey(med(0, kindProbe), kindProbe))
	case "probe_point":
		m.set("concurrent.contains_ns_per_key", med(0, kindContains))
		m.set("concurrent.insert_ns_per_key", med(0, kindInsert))
	case "kv_read":
		m.set("lsm.getbatch_ns_per_key", perKey(med(0, kindGet), kindGet))
	case "kv_write":
		m.set("lsm.getbatch_ns_per_key", perKey(med(0, kindGet), kindGet))
		m.set("lsm.apply_us_per_entry", us(perKey(med(0, kindPut), kindPut)))
		m.set("lsm.apply_stall_s", time.Duration(res.stallNS).Seconds())
	}
	m.set("process.allocs_per_req", res.mallocs)
	m.set("process.gc_pause_ms", float64(res.gcPause.Microseconds())/1e3)
	m.ratio("trace.e2e_gap_frac", math.Abs(us(med(4, prim))-served.p50us), served.p50us)

	// The layer budget: where one P4 round trip of the primary request
	// goes. Shares are of the P4 median.
	layers := [numPasses]string{"backend " + spanName[0][prim], "engine (admission, coalescer wait)", "wire decode + encode", "ServeHTTP shell (mux, body, headers)", "loopback + net/http connection"}
	fmt.Printf("  layer budget of one %s %s request (traced replay, %d callers, %d requests per pass, medians):\n", w.name, kindNames[prim], e.p.conns, res.count[4][prim])
	prev := 0.0
	dominant, top := "", 0.0
	for pass := 0; pass < numPasses; pass++ {
		self := med(pass, prim) - prev
		prev = med(pass, prim)
		fmt.Printf("    %-38s %10s us  %5.1f %%\n", layers[pass], fmtValue(us(self)), 100*self/med(4, prim))
		if self > top {
			dominant, top = layers[pass], self
		}
	}
	fmt.Printf("    %-38s %10s us  dominant: %s\n", "= P4 round trip", fmtValue(us(med(4, prim))), dominant)
	// What the served run adds to P4 is not a layer of filterd: client and
	// server are two processes there and share the CPUs with the generator.
	fmt.Printf("    %-38s %10s us  (served p50 %s us)\n", "served p50 - P4 (process boundary)", fmtValue(served.p50us-us(med(4, prim))), fmtValue(served.p50us))
	return attempted, res.wrong.wrong, bufs, nil
}

// sink keeps the scalar probe loops from being optimised away.
var sink int

// siblings are the standalone measurements that sit beside the
// passes: the same keys against one layer on its own, so a layer's
// kernel cost is known apart from the shells around it. They run once,
// after P0, on P0's replica.
func (e *env) siblings(w *workload, rep *replica, res *replayResult, m *metrics) {
	seed, n := e.p.seed, w.keys(e.p)
	pick := newRNG(seed, "siblings", 0)
	const sample = 1 << 16
	switch w.name {
	case "probe_batch", "probe_point":
		// A blocked Bloom filter alone: the loaded .bbf on probe_batch, a
		// shard-sized twin of the sharded filter's shards on probe_point.
		f := rep.filter
		if w.name == "probe_point" {
			b := bloom.NewBlocked(int(2*n>>2)+1, 12)
			start := time.Now()
			for i := uint64(0); i < n/4; i++ {
				b.Insert(presentKey(seed, i))
			}
			m.set("bloom.insert_ns_per_key", float64(time.Since(start).Nanoseconds())/float64(n/4))
			f = b
		}
		keys := make([]uint64, sample)
		for i := range keys {
			if i&1 == 0 {
				keys[i] = presentKey(seed, pick.below(n))
			} else {
				keys[i] = absentKey(seed, pick.below(absentSpace))
			}
		}
		out := make([]bool, server.MaxWireBatch)
		start := time.Now()
		for _, k := range keys {
			if f.Contains(k) {
				sink++
			}
		}
		m.set("bloom.scalar_ns_per_key", float64(time.Since(start).Nanoseconds())/sample)
		if w.name == "probe_point" {
			start = time.Now()
			for at := 0; at < sample; at += len(out) {
				core.ContainsBatch(f, keys[at:at+len(out)], out)
			}
			m.set("bloom.batch_ns_per_key", float64(time.Since(start).Nanoseconds())/sample)
		}
	case "kv_read", "kv_write":
		present := func() uint64 { return presentKey(seed, pick.below(n)) }
		if w.name == "kv_write" {
			st := res.streams[0].(*kvWriteStream)
			present = func() uint64 { return st.key(pick.below(uint64(len(st.latest)))) }
		}
		const batch = 4096
		keys := make([]uint64, batch)
		vals, found := make([]uint64, batch), make([]bool, batch)
		dev := rep.store.Device()
		for i := range keys {
			keys[i] = present()
		}
		probes, reads := rep.store.FilterProbes(), dev.Reads()
		rep.store.GetBatch(keys, vals, found)
		m.set("lsm.reads_per_hit", float64(dev.Reads()-reads)/batch)
		for i := range keys {
			keys[i] = absentKey(seed, pick.below(absentSpace))
		}
		reads = dev.Reads()
		rep.store.GetBatch(keys, vals, found)
		m.set("lsm.reads_per_miss", float64(dev.Reads()-reads)/batch)
		if w.name == "kv_read" {
			// The served run of kv_write reports these from /metrics.
			m.set("lsm.filter_probes_per_key", float64(rep.store.FilterProbes()-probes)/(2*batch))
		}
		for i := range keys {
			if i&1 == 0 {
				keys[i] = present()
			}
		}
		start := time.Now()
		for _, k := range keys {
			rep.store.Get(k)
		}
		m.set("lsm.get_ns_per_key", float64(time.Since(start).Nanoseconds())/batch)
		if w.name == "kv_read" {
			e.mapletSibling(n, m)
		} else {
			e.walSibling(w, m)
		}
	}
}

// mapletSibling measures a quotient.Maplet alone, with the geometry
// the store gives its global maplet (2^12 slots, 12 remainder bits,
// 16+16 value bits, doubling when full) and the same keys.
func (e *env) mapletSibling(n uint64, m *metrics) {
	seed := e.p.seed
	mp := quotient.NewMaplet(12, 12, 32)
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		for mp.Put(presentKey(seed, i), i&0xFFFF) != nil {
			if err := mp.Expand(); err != nil {
				fmt.Printf("  maplet sibling: expand: %v\n", err)
				return
			}
		}
	}
	m.set("quotient.maplet_put_us_per_key", us(float64(time.Since(start).Nanoseconds()))/float64(n))
	m.set("quotient.maplet_bits_per_key", float64(mp.SizeBits())/float64(n))
	pick := newRNG(seed, "maplet", 0)
	const sample = 1 << 16
	keys := make([]uint64, sample)
	for i := range keys {
		if i&1 == 0 {
			keys[i] = presentKey(seed, pick.below(n))
		} else {
			keys[i] = absentKey(seed, pick.below(absentSpace))
		}
	}
	var dst []uint64
	start = time.Now()
	for _, k := range keys {
		dst = mp.GetAppend(dst[:0], k)
	}
	m.set("quotient.maplet_get_ns_per_key", float64(time.Since(start).Nanoseconds())/sample)
	var ends []int32
	start = time.Now()
	for at := 0; at < sample; at += core.BatchChunk {
		ends, dst = mp.GetBatch(keys[at:at+core.BatchChunk], ends[:0], dst[:0])
	}
	m.set("quotient.maplet_getbatch_ns_per_key", float64(time.Since(start).Nanoseconds())/sample)
	deletes := n / 16
	start = time.Now()
	for i := uint64(0); i < deletes; i++ {
		mp.Delete(presentKey(seed, i), i&0xFFFF)
	}
	m.set("quotient.maplet_delete_us_per_key", us(float64(time.Since(start).Nanoseconds()))/float64(deletes))
}

// walSibling feeds a wal.Log alone, in its own directory, the records
// the kv_write callers put: one record of 16 ops per append, from as
// many concurrent appenders as the workload has connections. It runs
// in group-commit mode, filterd's default, so the fsync counts say
// what durable acknowledgement would add to the buffered served run.
func (e *env) walSibling(w *workload, m *metrics) {
	dir := filepath.Join(e.sb.dir, "wal-sibling")
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Mode: wal.ModeGroup}, nil)
	if err != nil {
		fmt.Printf("  wal sibling: %v\n", err)
		return
	}
	defer log.Close()
	count := w.replayCount(e.p)
	callers := e.p.conns
	durs := make([][]int64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := newKVWriteStream(e.p.seed, c, callers)
			var r request
			for j := 0; j < count; j++ {
				st.next(&r)
				st.verify(&r, nil, nil, &tally{})
				if r.kind != kindPut {
					continue
				}
				ops := make([]wal.Op, len(r.entries))
				for i, en := range r.entries {
					ops[i] = wal.Op{Key: en.Key, Value: en.Value}
				}
				start := time.Now()
				if _, err := log.Append(ops); err != nil {
					return
				}
				durs[c] = append(durs[c], int64(time.Since(start)))
			}
		}(c)
	}
	wg.Wait()
	s := log.Stats()
	m.set("wal.append_us_per_record", us(float64(recorded(durs...).Percentile(50))))
	m.ratio("wal.syncs_per_record", float64(s.Syncs), float64(s.Records))
	m.ratio("wal.fsyncs_per_key", float64(s.Syncs), float64(s.Ops))
	m.ratio("wal.bytes_per_op", float64(s.BytesLogged), float64(s.Ops))
	m.set("wal.rotations", float64(s.Rotations))
}
