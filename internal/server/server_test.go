package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/lsm"
)

// newTestFilter builds the serving filter the way cmd/filterd does: a
// sharded blocked-Bloom wrapper, so concurrent Insert+Contains is
// legal.
func newTestFilter(t *testing.T, n int) *concurrent.Sharded {
	t.Helper()
	sh, err := concurrent.NewShardedMutable(2, func(int) core.MutableFilter {
		return bloom.NewBlocked(n, 12)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// newTestEngine builds an engine over a fresh sharded filter and, when
// withStore is set, a synchronous in-memory LSM store.
func newTestEngine(t *testing.T, withStore bool, cfg Config) *Engine {
	t.Helper()
	var store *lsm.Store
	if withStore {
		var err error
		store, err = lsm.NewStore(lsm.Options{MemtableSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
	}
	e, err := NewEngine(newTestFilter(t, 4096), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// post sends body to path and returns the status and response body.
func post(t *testing.T, ts *httptest.Server, path, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	return post(t, ts, path, "application/json", body)
}

// saveFilterFile persists a filter containing exactly keys to a .bbf
// under dir and returns its path.
func saveFilterFile(t *testing.T, dir, name string, keys []uint64) string {
	t.Helper()
	f := bloom.NewBlocked(len(keys)+1, 12)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(file)
	if _, err := core.Save(w, f); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHTTPRoundTrip(t *testing.T) {
	e := newTestEngine(t, true, Config{})
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	if code, body := postJSON(t, ts, "/v1/insert", `{"keys": [10, 11, 12]}`); code != 200 {
		t.Fatalf("insert: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/contains", `{"key": 10}`); code != 200 || !strings.Contains(body, `"found":true`) {
		t.Fatalf("contains hit: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/contains", `{"key": 999999}`); code != 200 || !strings.Contains(body, `"found":false`) {
		t.Fatalf("contains miss: %d %s", code, body)
	}
	code, body := postJSON(t, ts, "/v1/contains", `{"keys": [10, 11, 999999]}`)
	if code != 200 {
		t.Fatalf("contains batch: %d %s", code, body)
	}
	var batch struct{ Found []bool }
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Found) != 3 || !batch.Found[0] || !batch.Found[1] || batch.Found[2] {
		t.Fatalf("contains batch found = %v, want [true true false]", batch.Found)
	}

	if code, body := postJSON(t, ts, "/v1/put", `{"key": 5, "value": 50}`); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/put", `{"entries": [{"key": 6, "value": 60}, {"key": 7, "value": 70}]}`); code != 200 {
		t.Fatalf("put batch: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/get", `{"key": 5}`); code != 200 || !strings.Contains(body, `"value":50`) {
		t.Fatalf("get: %d %s", code, body)
	}
	code, body = postJSON(t, ts, "/v1/get", `{"keys": [5, 6, 7, 8]}`)
	if code != 200 {
		t.Fatalf("get batch: %d %s", code, body)
	}
	var got struct {
		Values []uint64
		Found  []bool
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	want := []uint64{50, 60, 70, 0}
	for i, v := range want {
		if got.Values[i] != v || got.Found[i] != (v != 0) {
			t.Fatalf("get batch = %+v, want values %v", got, want)
		}
	}
	if code, body := postJSON(t, ts, "/v1/delete", `{"key": 6}`); code != 200 {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/get", `{"key": 6}`); code != 200 || !strings.Contains(body, `"found":false`) {
		t.Fatalf("get after delete: %d %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not flat JSON: %v", err)
	}
	resp.Body.Close()
	if vars["filterd_requests_total.contains"] != 2 {
		t.Fatalf("vars counter contains = %d, want 2", vars["filterd_requests_total.contains"])
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), `filterd_requests_total{op="contains"} 2`) {
		t.Fatalf("/metrics missing contains counter:\n%s", buf.String())
	}
}

// TestJSONAnswerShape pins that a body's form, not its key count,
// picks the path and the answer's form: {"key": k} gets a scalar from
// the point path, {"keys": [k]} a one-element array from the batch path.
func TestJSONAnswerShape(t *testing.T) {
	e := newTestEngine(t, true, Config{})
	ts := httptest.NewServer(New(e))
	defer ts.Close()
	if err := e.Insert(7); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(lsm.Entry{Key: 7, Value: 70}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	for _, tc := range []struct {
		name, path, body, want string
		counter                *atomic.Int64
	}{
		{"contains key", "/v1/contains", `{"key": 7}`, `{"found":true}`, &m.ReqContains},
		{"contains keys", "/v1/contains", `{"keys": [7]}`, `{"found":[true]}`, &m.ReqContainsBatch},
		{"get key", "/v1/get", `{"key": 7}`, `{"found":true,"value":70}`, &m.ReqGet},
		{"get keys", "/v1/get", `{"keys": [7]}`, `{"found":[true],"values":[70]}`, &m.ReqGetBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.counter.Load()
			code, body := postJSON(t, ts, tc.path, tc.body)
			if code != 200 || strings.TrimSpace(body) != tc.want {
				t.Fatalf("%s %s = %d %s, want %s", tc.path, tc.body, code, strings.TrimSpace(body), tc.want)
			}
			if got := tc.counter.Load() - before; got != 1 {
				t.Fatalf("request counted %d times under its op, want 1", got)
			}
		})
	}
}

func TestHTTPBinaryProbe(t *testing.T) {
	e := newTestEngine(t, true, Config{})
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	for _, k := range []uint64{100, 101} {
		if err := e.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Apply(lsm.Entry{Key: 100, Value: 1000}); err != nil {
		t.Fatal(err)
	}

	probe := func(op byte, keys []uint64) Response {
		t.Helper()
		frame := AppendBinaryRequest(nil, op, keys)
		resp, err := http.Post(ts.URL+"/v1/probe", BinaryContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("probe: status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		var out Response
		if err := DecodeBinaryResponse(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	r := probe(OpContains, []uint64{100, 101, 424242})
	if !r.Found[0] || !r.Found[1] || r.Found[2] {
		t.Fatalf("binary contains = %v, want [true true false]", r.Found)
	}
	r = probe(OpGet, []uint64{100, 424242})
	if !r.Found[0] || r.Values[0] != 1000 || r.Found[1] || r.Values[1] != 0 {
		t.Fatalf("binary get = %+v, want (1000, found) (0, absent)", r)
	}

	// Wrong content type is refused before any parsing.
	resp, err := http.Post(ts.URL+"/v1/probe", "application/json", strings.NewReader(`{"key": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("json to /v1/probe: status %d, want 415", resp.StatusCode)
	}
}

// TestBinaryProbeContentLength pins the framing of binary replies: a
// 4096-key contains reply (520 bytes) and a 256-key OpGet reply (2088
// bytes, over net/http's 2 KiB pre-chunking buffer) both carry a
// Content-Length equal to the frame length and are never chunked.
func TestBinaryProbeContentLength(t *testing.T) {
	e := newTestEngine(t, true, Config{})
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		op   byte
		n    int
		want int64
	}{
		{"contains 4096", OpContains, 4096, 520},
		{"get 256", OpGet, 256, 2088},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]uint64, tc.n)
			for i := range keys {
				keys[i] = uint64(i)
			}
			frame := AppendBinaryRequest(nil, tc.op, keys)
			resp, err := http.Post(ts.URL+"/v1/probe", BinaryContentType, bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if len(resp.TransferEncoding) != 0 {
				t.Fatalf("Transfer-Encoding = %v, want none", resp.TransferEncoding)
			}
			if resp.ContentLength != tc.want || int64(len(body)) != tc.want {
				t.Fatalf("Content-Length = %d, body %d bytes, want both %d", resp.ContentLength, len(body), tc.want)
			}
		})
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	e := newTestEngine(t, false, Config{MaxInflightKeys: 4})
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	cases := []struct {
		name, path, contentType, body string
		wantStatus                    int
	}{
		{"malformed json", "/v1/contains", "application/json", `{`, 400},
		{"empty body", "/v1/contains", "application/json", `{}`, 400},
		{"over read budget", "/v1/contains", "application/json", `{"keys": [1,2,3,4,5]}`, 429},
		{"kv without store", "/v1/get", "application/json", `{"key": 1}`, 501},
		{"put without store", "/v1/put", "application/json", `{"key": 1, "value": 2}`, 501},
		{"binary garbage", "/v1/probe", BinaryContentType, "not a frame", 400},
		{"reload missing path", "/admin/reload", "application/json", `{}`, 400},
		{"reload bad file", "/admin/reload", "application/json", `{"path": "/nonexistent.bbf"}`, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, body := post(t, ts, tc.path, tc.contentType, tc.body); code != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", code, strings.TrimSpace(body), tc.wantStatus)
			}
		})
	}

	// A batch over MaxWireBatch answers 413, not 400.
	var big strings.Builder
	big.WriteString(`{"keys": [`)
	for i := 0; i <= MaxWireBatch; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteByte('1')
	}
	big.WriteString(`]}`)
	if code, _ := postJSON(t, ts, "/v1/contains", big.String()); code != 413 {
		t.Fatalf("oversized batch: status %d, want 413", code)
	}
}

func TestInsertReadOnlyFilter(t *testing.T) {
	// A bare (unsharded) filter serves read-only: Insert must refuse
	// rather than race unlocked writes against concurrent probes.
	e, err := NewEngine(bloom.NewBlocked(128, 12), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Insert(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on read-only filter = %v, want ErrReadOnly", err)
	}
	if err := e.InsertBatch([]uint64{1, 2}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertBatch on read-only filter = %v, want ErrReadOnly", err)
	}
	ts := httptest.NewServer(New(e))
	defer ts.Close()
	if code, _ := postJSON(t, ts, "/v1/insert", `{"key": 1}`); code != 409 {
		t.Fatalf("insert status = %d, want 409", code)
	}
}

func TestHTTPReload(t *testing.T) {
	dir := t.TempDir()
	pathA := saveFilterFile(t, dir, "a.bbf", []uint64{1, 2, 3})
	pathB := saveFilterFile(t, dir, "b.bbf", []uint64{1000, 2000})

	e := newTestEngine(t, false, Config{})
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	if gen := e.Filter().Gen; gen != 1 {
		t.Fatalf("initial generation = %d, want 1", gen)
	}
	code, body := postJSON(t, ts, "/admin/reload", `{"path": "`+pathA+`"}`)
	if code != 200 || !strings.Contains(body, `"gen":2`) {
		t.Fatalf("reload A: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/contains", `{"key": 2}`); code != 200 || !strings.Contains(body, `"found":true`) {
		t.Fatalf("contains after reload A: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/admin/reload", `{"path": "`+pathB+`"}`); code != 200 || !strings.Contains(body, `"gen":3`) {
		t.Fatalf("reload B: %d %s", code, body)
	}
	if code, body := postJSON(t, ts, "/v1/contains", `{"keys": [1000, 2000]}`); code != 200 || strings.Count(body, "true") != 2 {
		t.Fatalf("contains after reload B: %d %s", code, body)
	}
	// The loaded filter is a bare blocked Bloom: generation 3 is
	// read-only even though generation 1 accepted inserts.
	if code, _ := postJSON(t, ts, "/v1/insert", `{"key": 9}`); code != 409 {
		t.Fatalf("insert after reload should be 409")
	}
}

func TestLoadFilterFileRejectsTrailing(t *testing.T) {
	dir := t.TempDir()
	path := saveFilterFile(t, dir, "x.bbf", []uint64{1})
	if _, err := LoadFilterFile(path); err != nil {
		t.Fatalf("clean file: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde})
	f.Close()
	if _, err := LoadFilterFile(path); err == nil {
		t.Fatal("file with trailing bytes loaded")
	}
}

func TestWriteAdmission(t *testing.T) {
	e := newTestEngine(t, true, Config{MaxInflightWrites: 2})
	// Fill the write budget by hand (white-box): the next Apply must be
	// rejected fast instead of queueing behind the stall.
	e.inflightWrites.Store(2)
	if err := e.Apply(lsm.Entry{Key: 1, Value: 1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Apply over budget = %v, want ErrOverloaded", err)
	}
	e.inflightWrites.Store(0)
	if err := e.Apply(lsm.Entry{Key: 1, Value: 1}); err != nil {
		t.Fatalf("Apply under budget = %v", err)
	}
	if got := e.Metrics().RejectedWrite.Load(); got != 1 {
		t.Fatalf("RejectedWrite = %d, want 1", got)
	}
}
