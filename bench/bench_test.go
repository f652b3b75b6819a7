package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	wl "beyondbloom/internal/workload"
)

func TestPercentileAndMedian(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := recorded(samples[:40], samples[40:]).Percentile(c.p); got != c.want {
			t.Errorf("percentile %v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if samples[0] != 100 {
		t.Error("recorded reordered the caller's samples")
	}
	if got := recorded().Percentile(50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

// One slice in five is hit by a noisy neighbour: the median over slice
// medians stays at the quiet value where the pooled median and the mean
// move.
func TestSliceMediansIgnoreASpoiledSlice(t *testing.T) {
	slices := make([][]int64, 5)
	for s := range slices {
		for i := 0; i < 100; i++ {
			v := int64(100)
			if s == 2 {
				v = 900
			}
			slices[s] = append(slices[s], v+int64(i%3))
		}
	}
	got := median(sliceMedians(slices))
	if got != 101 {
		t.Errorf("slice-median = %v, want 101 (the quiet slices' median)", got)
	}
	slices = append(slices, nil) // an empty slice yields no value
	if again := median(sliceMedians(slices)); again != got {
		t.Errorf("empty slice changed the estimate: %v != %v", again, got)
	}
}

// calmest takes the value a tenth of the way down from the best slice:
// the third best of twenty, whichever direction is better, and it does
// not move when most of the run is slowed.
func TestCalmest(t *testing.T) {
	quiet := make([]float64, 20)
	for i := range quiet {
		quiet[i] = 1000 + float64((i*7)%20) // 1000..1019, shuffled
	}
	if got := calmest(quiet, true); got != 1017 {
		t.Errorf("calmest throughput of 1000..1019 = %v, want 1017 (third best)", got)
	}
	if got := calmest(quiet, false); got != 1002 {
		t.Errorf("calmest latency of 1000..1019 = %v, want 1002 (third best)", got)
	}
	noisy := append([]float64(nil), quiet...)
	for i := 0; i < 14; i++ { // fourteen of twenty seconds lose 30 %
		noisy[i] *= 0.7
	}
	if got, m := calmest(noisy, true), median(noisy); got < 1000 || m > 750 {
		t.Errorf("14 slowed slices of 20: calmest %v (want a quiet slice), median %v (want a slowed one)", got, m)
	}
	if got := calmest([]float64{5}, true); got != 5 {
		t.Errorf("calmest of one slice = %v, want 5", got)
	}
	if got := calmest(nil, false); got != 0 {
		t.Errorf("calmest of no slices = %v, want 0", got)
	}
}

// The tail a report may quote is the highest percentile with at least
// ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}, {100000, "p9999"}, {5000000, "p9999"}} {
		if got, _ := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	if got := tailOrZero(recorded(sorted), 100); got != 989 {
		t.Errorf("p99 of 1000 samples = %v, want 989", got)
	}
	if got := tailOrZero(recorded(sorted), 1000); got != 0 {
		t.Errorf("p999 of 1000 samples = %v, want 0 (one sample beyond it)", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// which the acceptance rule is written in.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([100, 101, 103], n=4) == [100.0, 101.0, 103.0]
	if got := quartileSpread([]float64{100, 101, 103}); math.Abs(got-3.0/101) > 1e-12 {
		t.Errorf("spread of 100,101,103 = %v, want 3/101", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// ackAll answers a request the way a correct server would, as far as
// the stream's model needs: writes are acknowledged.
func ackAll(st stream, r *request) {
	if r.kind == kindPut || r.kind == kindInsert {
		st.verify(r, nil, nil, &tally{})
	}
}

func requestBytes(w *workload, seed uint64, conn, count int) []byte {
	st := w.stream(seed, w.n, conn, 2)
	var r request
	var out []byte
	for i := 0; i < count; i++ {
		st.next(&r)
		out = append(out, r.path()...)
		out = r.appendBody(out)
		ackAll(st, &r)
	}
	return out
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := requestBytes(w, 7, 0, 40), requestBytes(w, 7, 0, 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal seeds gave different request bytes", w.name)
		}
		if bytes.Equal(a, requestBytes(w, 8, 0, 40)) {
			t.Errorf("%s: seeds 7 and 8 gave identical request bytes", w.name)
		}
		if bytes.Equal(a, requestBytes(w, 7, 1, 40)) {
			t.Errorf("%s: connections 0 and 1 gave identical request bytes", w.name)
		}
	}
}

func TestKeysAgreeWithWorkloadPackage(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 20} {
		present, absent := wl.Keys(1000, seed), wl.DisjointKeys(1000, seed)
		for i := range present {
			if got := presentKey(seed, uint64(i)); got != present[i] {
				t.Fatalf("presentKey(%d, %d) = %d, workload.Keys gives %d", seed, i, got, present[i])
			}
			if got := absentKey(seed, uint64(i)); got != absent[i] {
				t.Fatalf("absentKey(%d, %d) = %d, workload.DisjointKeys gives %d", seed, i, got, absent[i])
			}
		}
	}
}

// A stream's verify is the correctness gate: it must accept the right
// answers and count each kind of wrong one.
func TestVerifyCatchesWrongAnswers(t *testing.T) {
	var r request

	pb := workloadByName("probe_batch").stream(3, 1000, 0, 2)
	pb.next(&r)
	found := make([]bool, len(r.keys))
	for i := range found {
		found[i] = i%2 == 0 // present keys found, absent keys not
	}
	var ok tally
	pb.verify(&r, found, nil, &ok)
	if ok.wrong != 0 || ok.falsePos != 0 || ok.negatives != int64(len(r.keys)/2) {
		t.Errorf("probe_batch right answers: %+v", ok)
	}
	found[0], found[1] = false, true // one false negative, one false positive
	var bad tally
	pb.verify(&r, found, nil, &bad)
	if bad.wrong != 1 || bad.falsePos != 1 || !strings.Contains(bad.detail, "false negative") {
		t.Errorf("probe_batch false negative + false positive: %+v", bad)
	}

	kr := workloadByName("kv_read").stream(3, 1000, 0, 2)
	kr.next(&r)
	found, values := make([]bool, len(r.keys)), make([]uint64, len(r.keys))
	for i, k := range r.keys {
		if i%2 == 0 {
			found[i], values[i] = true, k
		}
	}
	ok = tally{}
	kr.verify(&r, found, values, &ok)
	if ok.wrong != 0 {
		t.Errorf("kv_read right answers: %+v", ok)
	}
	values[0]++     // stale value
	found[1] = true // absent key found: the store is exact
	bad = tally{}
	kr.verify(&r, found, values, &bad)
	if bad.wrong != 2 {
		t.Errorf("kv_read stale value + phantom key: %+v", bad)
	}

	kw := newKVWriteStream(3, 0, 2)
	kw.next(&r) // put
	kw.verify(&r, nil, nil, &tally{})
	for round := 0; round < 20; round++ { // build up overwrites
		kw.next(&r) // get
		kw.next(&r) // put
		kw.verify(&r, nil, nil, &tally{})
	}
	kw.next(&r) // get
	found, values = make([]bool, len(r.keys)), make([]uint64, len(r.keys))
	for i := range r.keys {
		if i%2 == 0 {
			found[i], values[i] = true, kw.latest[kw.ords[i/2]]
		}
	}
	ok = tally{}
	kw.verify(&r, found, values, &ok)
	if ok.wrong != 0 {
		t.Errorf("kv_write right answers: %+v", ok)
	}
	values[2]-- // an overwrite that did not stick
	bad = tally{}
	kw.verify(&r, found, values, &bad)
	if bad.wrong != 1 {
		t.Errorf("kv_write lost update: %+v", bad)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is the contract: names well-formed and unique, counts
// within 8 / 16 / 128, and every name one this program produces.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}

	var source strings.Builder
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		source.Write(raw)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %q is not one the program runs", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, ms := range spec.EndToEnd {
		check(ms.Name)
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", ms.Name, ms.Bound)
		}
		setup = setup || (ms.Name == "setup_s" && ms.Unit == "s" && ms.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
	for _, ms := range spec.PerLayer {
		check(ms.Name)
	}
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s: better is %q", ms.Name, ms.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(ms.Unit) {
			t.Errorf("%s: unit %q", ms.Name, ms.Unit)
		}
		if !strings.Contains(source.String(), `"`+ms.Name+`"`) {
			t.Errorf("%s is declared in BENCHMARK.json but no source file sets it", ms.Name)
		}
	}

	m := newMetrics(spec)
	m.set("keys_per_s", 1)
	if m.err != nil {
		t.Errorf("declared metric rejected: %v", m.err)
	}
	m.set("no.such_metric", 1)
	if m.err == nil {
		t.Error("undeclared metric accepted")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "keys_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		ms   metricSpec
		b    []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104}, "ok"},
		{lower, []float64{115, 116, 114, 115}, "worse"},
		{lower, []float64{60, 61, 59, 60}, "ok"}, // better is never worse
		{higher, []float64{85, 86, 84, 85}, "worse"},
		{higher, []float64{120, 121, 119, 120}, "ok"},
		{lower, []float64{80, 130, 95, 109}, "unresolved"}, // spread wider than the bound
		{lower, []float64{50, 90, 60, 70}, "ok"},           // wide, but every run beats every baseline run
	} {
		if got, _ := verdict(c.ms, base, c.b); got != c.want {
			t.Errorf("verdict(%s, base, %v) = %s, want %s", c.ms.Name, c.b, got, c.want)
		}
	}
}

// The raw client must read both framings net/http produces.
func TestHTTPConnReadsBothFramings(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 5000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte("ok\n")) // Content-Length
		case "/big":
			w.Write(big) // over net/http's 2 KiB buffer: chunked
		case "/flushed":
			w.Write([]byte("ab"))
			w.(http.Flusher).Flush()
			w.Write([]byte("cd"))
		default:
			http.Error(w, "no", http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	hc, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.close()
	for _, c := range []struct {
		path   string
		status int
		body   string
	}{{"/small", 200, "ok\n"}, {"/big", 200, string(big)}, {"/flushed", 200, "abcd"}, {"/nope", 429, "no\n"}, {"/small", 200, "ok\n"}} {
		status, body, err := hc.do(c.path, "text/plain", []byte("q"))
		if err != nil || status != c.status || string(body) != c.body {
			t.Errorf("%s: status %d, %d body bytes, err %v; want %d, %d bytes", c.path, status, len(body), err, c.status, len(c.body))
		}
	}
}
