package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"beyondbloom/internal/lsm"
	"beyondbloom/internal/server"
)

// env is what every run of one invocation shares.
type env struct {
	root string // checkout root: where ./cmd/filterd is built from
	bin  string // the built filterd
	sb   *sandbox
	spec *benchSpec
	p    params
}

// answer decodes a response body into found/values, reusing its
// buffers. The served client and the traced replay share it, so both
// check exactly the bytes the server wrote.
type answer struct {
	resp server.Response
	one  [1]bool
}

var (
	bodyFound    = []byte("{\"found\":true}\n")
	bodyNotFound = []byte("{\"found\":false}\n")
	bodyOK       = []byte("{\"ok\":true}\n")
)

func (a *answer) decode(kind reqKind, body []byte) (found []bool, values []uint64, err error) {
	switch kind {
	case kindProbe, kindGet:
		if err := server.DecodeBinaryResponse(body, &a.resp); err != nil {
			return nil, nil, err
		}
		return a.resp.Found, a.resp.Values, nil
	case kindContains:
		switch {
		case bytes.Equal(body, bodyFound):
			a.one[0] = true
		case bytes.Equal(body, bodyNotFound):
			a.one[0] = false
		default:
			return nil, nil, fmt.Errorf("unexpected /v1/contains body %q", body)
		}
		return a.one[:], nil, nil
	}
	if !bytes.Equal(body, bodyOK) {
		return nil, nil, fmt.Errorf("unexpected write acknowledgement %q", body)
	}
	return nil, nil, nil
}

// client is one closed-loop connection: a request under construction,
// its wire body, and the decoded answer, all reused across requests.
type client struct {
	addr   string
	hc     *httpConn
	req    request
	body   []byte
	ans    answer
	t0, t1 time.Time // around the network round trip of the last request
}

// roundTrip sends c.req and decodes the answer. Any error — transport,
// a status other than 200 (429 included), an undecodable body — is a
// failed request.
func (c *client) roundTrip() (found []bool, values []uint64, err error) {
	if c.hc == nil {
		if c.hc, err = dialHTTP(c.addr); err != nil {
			return nil, nil, err
		}
	}
	c.body = c.req.appendBody(c.body[:0])
	c.t0 = time.Now()
	status, resp, err := c.hc.do(c.req.path(), c.req.contentType(), c.body)
	c.t1 = time.Now()
	if err != nil {
		c.hc.close()
		c.hc = nil
		return nil, nil, err
	}
	if status != 200 {
		return nil, nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(resp))
	}
	return c.ans.decode(c.req.kind, resp)
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.close()
	}
}

// setUp brings a workload's server to the point where it answers its
// first verified request: `filterd build`, `filterd serve`, preload.
// This whole function is what setup_s times.
func (e *env) setUp(w *workload, dir string) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := w.keys(e.p)
	if w.build != nil {
		if err := runFilterd(e.bin, w.build(dir, n, e.p.seed)...); err != nil {
			return nil, err
		}
	}
	c, err := e.sb.serve(e.bin, w.serve(dir, n)...)
	if err != nil {
		return nil, err
	}
	cl := &client{addr: c.addr}
	defer cl.close()
	fail := func(err error) (*child, error) {
		c.kill()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if w.preload {
		var body []byte
		for at := uint64(0); at < n; at += server.MaxWireBatch {
			body = append(body[:0], `{"keys":[`...)
			for i := at; i < at+server.MaxWireBatch && i < n; i++ {
				if i > at {
					body = append(body, ',')
				}
				body = strconv.AppendUint(body, presentKey(e.p.seed, i), 10)
			}
			body = append(body, "]}"...)
			if cl.hc == nil {
				if cl.hc, err = dialHTTP(c.addr); err != nil {
					return fail(err)
				}
			}
			status, resp, err := cl.hc.do("/v1/insert", "application/json", body)
			if err != nil || status != 200 {
				return fail(fmt.Errorf("preload insert: HTTP %d %s %v", status, bytes.TrimSpace(resp), err))
			}
		}
	}
	st := w.stream(e.p.seed, n, 0, e.p.conns)
	var t tally
	for i := 0; i < w.firstReqs; i++ {
		st.next(&cl.req)
		found, values, err := cl.roundTrip()
		if err != nil {
			return fail(err)
		}
		st.verify(&cl.req, found, values, &t)
	}
	if t.wrong > 0 {
		return fail(fmt.Errorf("first request answered wrongly: %s", t.detail))
	}
	return c, nil
}

// connLog is what one connection records while it drives the server.
type connLog struct {
	keys     []int64             // keys answered + entries acknowledged, per slice
	lat      [numKinds][][]int64 // round-trip ns by kind, per slice
	getKeys  int64               // KV keys looked up in the measure phase
	putKeys  int64               // entries acknowledged in the measure phase
	inserted int64               // membership inserts acknowledged, whole run
	reqs     int64               // requests attempted, whole run
	failed   int64               // of those, transport errors / non-200 / undecodable
	selfNS   int64               // generator time outside the round trip (build + verify)
	stallNS  int64               // time inside round trips longer than 10 ms
	t        tally
	firstErr string
	spans    *spanBuf
}

// snapshot is the server child's CPU time and /metrics at one instant.
type snapshot struct {
	cpu  time.Duration
	prom map[string]int64
}

func takeSnapshot(c *child, hc *httpConn) (snapshot, error) {
	cpu, err := procCPU(c.pid())
	if err != nil {
		return snapshot{}, err
	}
	status, body, err := hc.do("/metrics", "", nil)
	if err != nil || status != 200 {
		return snapshot{}, fmt.Errorf("GET /metrics: HTTP %d %v", status, err)
	}
	prom := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
				prom[line[:i]] = v
			}
		}
	}
	return snapshot{cpu, prom}, nil
}

// servedResult is what the served run hands to the caller besides the
// metrics it sets.
type servedResult struct {
	attempted, failed int64
	detail            string // first wrong answer or failed request
	p50us             float64
	spans             []*spanBuf
}

// stallThreshold is the round-trip time past which a request counts
// into loadgen.stall_s.
const stallThreshold = 10 * time.Millisecond

// spanLimit bounds one connection's in-memory span log.
const spanLimit = 1 << 19

// servedRun is one workload against the real filterd child: set-up
// (three times with tracing off, so setup_s is a median), warm-up,
// the sliced measure phase, the crash-restart check on kv_write, and
// the store inspection. With traced set, client spans are recorded in
// every odd slice; the even slices are the tracing-off control that
// trace.overhead_frac is taken against.
func (e *env) servedRun(w *workload, m *metrics, traced bool) (*servedResult, error) {
	reps := 3
	if traced || e.p.smoke {
		reps = 1
	}
	var (
		c      *child
		dir    string
		setups []float64
	)
	for rep := 0; rep < reps; rep++ {
		if c != nil {
			c.kill()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(e.sb.dir, fmt.Sprintf("%s-%d", w.name, rep))
		start := time.Now()
		var err error
		if c, err = e.setUp(w, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m.set("setup_s", median(setups))

	n := w.keys(e.p)
	slices := int(e.p.measure / time.Second)
	epoch := time.Now()
	measureStart := epoch.Add(e.p.warm)
	end := measureStart.Add(time.Duration(slices) * time.Second)

	logs := make([]*connLog, e.p.conns)
	streams := make([]stream, e.p.conns)
	var wg sync.WaitGroup
	for i := range logs {
		streams[i] = w.stream(e.p.seed, n, i, e.p.conns)
		lg := &connLog{keys: make([]int64, slices)}
		for k := range lg.lat {
			lg.lat[k] = make([][]int64, slices)
		}
		if traced {
			lg.spans = newSpanBuf(epoch, "served", spanLimit)
		}
		logs[i] = lg
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			driveConn(&client{addr: c.addr}, streams[conn], lg, conn, measureStart, end)
		}(i)
	}

	mc, err := dialHTTP(c.addr)
	if err != nil {
		return nil, err
	}
	defer mc.close()
	time.Sleep(time.Until(measureStart))
	before, err := takeSnapshot(c, mc)
	if err != nil {
		return nil, err
	}
	time.Sleep(time.Until(end))
	after, err := takeSnapshot(c, mc)
	if err != nil {
		return nil, err
	}
	wg.Wait()

	res := &servedResult{}
	var total connLog
	perSlice := make([]float64, slices)
	pooled := make([][][]int64, numKinds) // kind -> slice -> samples
	for k := range pooled {
		pooled[k] = make([][]int64, slices)
	}
	for _, lg := range logs {
		total.reqs += lg.reqs
		total.failed += lg.failed
		total.getKeys += lg.getKeys
		total.putKeys += lg.putKeys
		total.inserted += lg.inserted
		total.selfNS += lg.selfNS
		total.stallNS += lg.stallNS
		total.t.add(&lg.t)
		if total.firstErr == "" {
			total.firstErr = lg.firstErr
		}
		for s := 0; s < slices; s++ {
			perSlice[s] += float64(lg.keys[s])
			for k := range pooled {
				pooled[k][s] = append(pooled[k][s], lg.lat[k][s]...)
			}
		}
		res.spans = append(res.spans, lg.spans)
	}
	var measuredKeys float64
	for _, k := range perSlice {
		measuredKeys += k
	}
	if measuredKeys == 0 {
		return nil, fmt.Errorf("%s: no request completed in the measure phase (%s)", w.name, total.firstErr)
	}

	primary := recorded(pooled[w.primary]...)
	primaryP50 := sliceMedians(pooled[w.primary])
	res.p50us = us(calmest(primaryP50, false))
	m.set("keys_per_s", calmest(perSlice, true))
	m.set("p50_us", res.p50us)
	m.set("loadgen.keys_per_s_median", median(perSlice))
	m.set("loadgen.p50_us_median", us(median(primaryP50)))
	m.set("process.cpu_us_per_key", float64((after.cpu-before.cpu).Microseconds())/measuredKeys)

	m.set("loadgen.requests", float64(total.reqs))
	m.set("loadgen.p99_us", us(tailOrZero(primary, 100)))
	m.set("loadgen.p999_us", us(tailOrZero(primary, 1000)))
	m.set("loadgen.max_us", us(float64(primary.Percentile(100))))
	m.set("loadgen.stall_s", time.Duration(total.stallNS).Seconds())
	m.set("loadgen.slice_cv", coefVar(perSlice))
	m.set("loadgen.self_us_per_req", us(float64(total.selfNS))/float64(total.reqs))
	m.set("loadgen.fail_frac", float64(total.failed+total.t.wrong)/float64(total.reqs))
	// Reads and inserts that ride beside another primary request.
	if gets := recorded(pooled[kindGet]...); w.primary != kindGet && gets.Count() > 0 {
		m.set("loadgen.get_p50_us", us(median(sliceMedians(pooled[kindGet]))))
		m.set("loadgen.get_p99_us", us(tailOrZero(gets, 100)))
	}
	if inserts := median(sliceMedians(pooled[kindInsert])); inserts > 0 {
		m.set("loadgen.insert_p50_us", us(inserts))
	}
	// The slice series themselves, so a noisy second or a noisy run is legible.
	fmt.Printf("  %s keys per one-second slice:", w.name)
	for _, k := range perSlice {
		fmt.Printf(" %.0f", k)
	}
	fmt.Printf("\n  %s %s p50 us per one-second slice:", w.name, kindNames[w.primary])
	for _, l := range primaryP50 {
		fmt.Printf(" %.1f", us(l))
	}
	fmt.Println()
	if tail, p := supportedTail(primary.Count()); tail != "" {
		fmt.Printf("  %s %s latency: p50 %s us, %s %s us over %d samples\n", w.name, kindNames[w.primary],
			fmtValue(res.p50us), tail, fmtValue(us(float64(primary.Percentile(p)))), primary.Count())
	}

	delta := func(name string) float64 { return float64(after.prom[name] - before.prom[name]) }
	const membership = `{role="membership"}`
	m.ratio("server.coalesce.avg_batch", delta("filterd_coalesce_keys_total"+membership), delta("filterd_coalesce_windows_total"+membership))
	m.ratio("server.coalesce.deadline_flush_frac", delta("filterd_coalesce_deadline_flushes_total"+membership), delta("filterd_coalesce_windows_total"+membership))
	m.set("server.coalesce.empty_deadline_fires", delta("filterd_coalesce_empty_deadline_fires_total"+membership))
	m.set("server.engine.rejected", delta(`filterd_admission_rejected_total{class="read"}`)+delta(`filterd_admission_rejected_total{class="write"}`))
	m.ratio("client.fpr", float64(total.t.falsePos), float64(total.t.negatives))
	m.ratio("lsm.dev_reads_per_key", delta("filterd_store_device_reads_total"), float64(total.getKeys))
	m.ratio("lsm.dev_writes_per_key", delta("filterd_store_device_writes_total"), float64(total.putKeys))
	m.ratio("lsm.filter_probes_per_key", delta("filterd_store_filter_probes_total"), float64(total.getKeys))
	m.set("lsm.maplet_fallbacks", float64(after.prom["filterd_store_maplet_fallbacks_total"]))
	m.set("lsm.maplet_delete_misses", float64(after.prom["filterd_store_maplet_delete_misses_total"]))
	if rss, err := procPeakRSS(c.pid()); err == nil {
		m.set("process.rss_peak_mb", rss)
	}
	if traced {
		// Each spans-on (odd) slice against the mean of its two spans-off
		// neighbours, so a throughput trend over the run cancels.
		var loss []float64
		for s := 1; s+1 < slices; s += 2 {
			if off := (perSlice[s-1] + perSlice[s+1]) / 2; off > 0 {
				loss = append(loss, 1-perSlice[s]/off)
			}
		}
		m.set("trace.overhead_frac", median(loss))
	}

	// Space: filter memory over live keys. Membership filters report
	// their size on /metrics; a store is opened in-process once the
	// child no longer holds it.
	storeDir := filepath.Join(dir, "kv")
	switch {
	case !w.store:
		m.ratio("filter_bits_per_key", float64(after.prom["filterd_filter_size_bits"]), float64(int64(n)+total.inserted))
		c.kill()
	case w.name == "kv_write":
		lost, tried, err := e.crashCheck(w, c, dir, streams, m)
		if err != nil {
			return nil, err
		}
		total.reqs += tried
		total.t.wrong += lost
		if lost > 0 && total.t.detail == "" {
			total.t.detail = fmt.Sprintf("%d acknowledged writes lost across SIGKILL + restart", lost)
		}
	default:
		if err := c.stop(); err != nil {
			return nil, err
		}
		if err := inspectStore(storeDir, m); err != nil {
			return nil, err
		}
	}
	os.RemoveAll(dir)

	res.attempted = total.reqs
	res.failed = total.failed + total.t.wrong
	res.detail = total.t.detail
	if res.detail == "" {
		res.detail = total.firstErr
	}
	return res, nil
}

// driveConn is one closed-loop connection: build, send, wait, verify,
// repeat until the measure phase is over. A request is attributed to
// the slice it completes in; requests completing in the warm-up are
// verified but not timed.
func driveConn(cl *client, st stream, lg *connLog, conn int, measureStart, end time.Time) {
	defer cl.close()
	var serial uint64
	for {
		tb := time.Now()
		st.next(&cl.req)
		found, values, err := cl.roundTrip()
		lg.reqs++
		if err != nil {
			lg.failed++
			if lg.firstErr == "" {
				lg.firstErr = err.Error()
			}
			if cl.hc == nil && lg.failed > 100 {
				return // the server is gone; do not spin on redials
			}
		} else {
			st.verify(&cl.req, found, values, &lg.t)
			if cl.req.kind == kindInsert {
				lg.inserted++
			}
		}
		tv := time.Now()
		if err == nil {
			rtt := cl.t1.Sub(cl.t0)
			lg.selfNS += int64(tv.Sub(tb) - rtt)
			if rtt > stallThreshold {
				lg.stallNS += int64(rtt)
			}
			if !cl.t1.Before(measureStart) && cl.t1.Before(end) {
				kind, size := cl.req.kind, int64(cl.req.size())
				slice := int(cl.t1.Sub(measureStart) / time.Second)
				lg.keys[slice] += size
				lg.lat[kind][slice] = append(lg.lat[kind][slice], int64(rtt))
				switch kind {
				case kindGet:
					lg.getKeys += size
				case kindPut:
					lg.putKeys += size
				}
				if lg.spans != nil && slice%2 == 1 {
					trace := uint64(conn)<<48 | serial
					lg.spans.add(trace, 1, 0, servedSpans[kind][0], tb, tv)
					lg.spans.add(trace, 2, 1, "loadgen.build", tb, cl.t0)
					lg.spans.add(trace, 3, 1, servedSpans[kind][1], cl.t0, cl.t1)
					lg.spans.add(trace, 4, 1, "loadgen.verify", cl.t1, tv)
				}
			}
		}
		serial++
		if !tv.Before(end) {
			return
		}
	}
}

// servedSpans names a served request's root span and its round-trip
// child, by kind.
var servedSpans = func() (names [numKinds][2]string) {
	for k, name := range kindNames {
		names[k] = [2]string{"loadgen." + name, "filterd." + name}
	}
	return names
}()

// crashCheck is the durability gate of kv_write: SIGKILL the child,
// restart it on the same directory, time spawn -> first verified
// answer, and read back a seeded sample of acknowledged writes. The
// OS cache survives SIGKILL, so this checks WAL replay and manifest
// recovery, not torn-write repair (the CrashFS sweeps own that). A
// copy of the killed directory is opened in-process for what the
// served binary does not export: replayed ops, tree shape, filter bits.
func (e *env) crashCheck(w *workload, c *child, dir string, conns []stream, m *metrics) (lost, tried int64, err error) {
	storeDir := filepath.Join(dir, "kv")
	streams := make([]*kvWriteStream, len(conns))
	for i, st := range conns {
		streams[i] = st.(*kvWriteStream)
	}
	c.kill()
	killed := filepath.Join(dir, "killed")
	if err := copyDir(storeDir, killed); err != nil {
		return 0, 0, err
	}
	if err := inspectStore(killed, m); err != nil {
		return 0, 0, err
	}

	start := time.Now()
	c2, err := e.sb.serve(e.bin, w.serve(dir, 0)...)
	if err != nil {
		return 0, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer c2.kill()
	cl := &client{addr: c2.addr}
	defer cl.close()
	pick := newRNG(e.p.seed, "crash-sample", 0)
	const sample, frame = 4096, 256
	for done := 0; done < sample; done += frame {
		cl.req.kind = kindGet
		cl.req.keys = cl.req.keys[:0]
		want := make([]uint64, 0, frame)
		for i := 0; i < frame; i++ {
			st := streams[pick.below(uint64(len(streams)))]
			if len(st.latest) == 0 {
				continue
			}
			ord := pick.below(uint64(len(st.latest)))
			cl.req.keys = append(cl.req.keys, st.key(ord))
			want = append(want, st.latest[ord])
		}
		if len(want) == 0 {
			return 0, 0, fmt.Errorf("kv_write acknowledged no write to sample")
		}
		found, values, err := cl.roundTrip()
		tried++
		if err != nil {
			return 0, tried, fmt.Errorf("read-back after restart: %w", err)
		}
		if done == 0 {
			m.set("lsm.recovery_s", time.Since(start).Seconds())
		}
		for i, v := range want {
			if !found[i] || values[i] != v {
				lost++
				fmt.Printf("  LOST acknowledged write: key %d found=%v value=%d, want %d\n", cl.req.keys[i], found[i], values[i], v)
			}
		}
	}
	m.set("lsm.lost_acked", float64(lost))
	return lost, tried, c2.stop()
}

// inspectStore opens a store directory no process holds and records
// its shape: filter bits per live key, runs, levels, and how many WAL
// ops the open replayed.
func inspectStore(dir string, m *metrics) error {
	st, err := lsm.OpenStore(dir, lsm.Options{Durability: lsm.DurabilityGroup})
	if err != nil {
		return fmt.Errorf("inspect %s: %w", dir, err)
	}
	defer st.Close()
	m.ratio("filter_bits_per_key", float64(st.FilterMemoryBits()), float64(st.Len()))
	m.set("lsm.runs", float64(st.Runs()))
	m.set("lsm.levels", float64(st.Levels()))
	m.set("wal.replayed_ops", float64(st.WAL().Stats().Replayed))
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		from, to := filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())
		if ent.IsDir() {
			if err := copyDir(from, to); err != nil {
				return err
			}
			continue
		}
		in, err := os.Open(from)
		if err != nil {
			return err
		}
		out, err := os.Create(to)
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
