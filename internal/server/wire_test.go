package server

import (
	"bytes"
	"errors"
	"testing"
)

func TestBinaryRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		op   byte
		keys []uint64
	}{
		{"contains empty", OpContains, nil},
		{"contains one", OpContains, []uint64{42}},
		{"contains several", OpContains, []uint64{0, 1, ^uint64(0), 1 << 63}},
		{"get", OpGet, []uint64{7, 8, 9}},
		{"max batch", OpContains, make([]uint64, MaxWireBatch)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := AppendBinaryRequest(nil, tc.op, tc.keys)
			var req Request
			if err := DecodeBinaryRequest(frame, &req); err != nil {
				t.Fatal(err)
			}
			if req.Op != tc.op || len(req.Keys) != len(tc.keys) {
				t.Fatalf("decoded (op=%d, %d keys), want (op=%d, %d keys)", req.Op, len(req.Keys), tc.op, len(tc.keys))
			}
			for i := range tc.keys {
				if req.Keys[i] != tc.keys[i] {
					t.Fatalf("key %d = %d, want %d", i, req.Keys[i], tc.keys[i])
				}
			}
			// Re-encoding the decoded request must reproduce the frame
			// byte for byte — the format is canonical.
			if again := AppendBinaryRequest(nil, req.Op, req.Keys); !bytes.Equal(again, frame) {
				t.Fatal("re-encoded frame differs from original")
			}
		})
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		op     byte
		found  []bool
		values []uint64
	}{
		{"contains empty", OpContains, nil, nil},
		{"contains seven", OpContains, []bool{true, false, true, true, false, false, true}, nil},
		{"contains eight", OpContains, []bool{false, true, false, true, false, true, false, true}, nil},
		{"contains nine", OpContains, []bool{true, true, true, true, true, true, true, true, true}, nil},
		{"get", OpGet, []bool{true, false, true}, []uint64{11, 0, 33}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := AppendBinaryResponse(nil, tc.op, tc.found, tc.values)
			var resp Response
			if err := DecodeBinaryResponse(frame, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Op != tc.op || len(resp.Found) != len(tc.found) {
				t.Fatalf("decoded (op=%d, %d answers), want (op=%d, %d)", resp.Op, len(resp.Found), tc.op, len(tc.found))
			}
			for i := range tc.found {
				if resp.Found[i] != tc.found[i] {
					t.Fatalf("found[%d] = %v, want %v", i, resp.Found[i], tc.found[i])
				}
			}
			if tc.op == OpGet {
				for i := range tc.values {
					if resp.Values[i] != tc.values[i] {
						t.Fatalf("values[%d] = %d, want %d", i, resp.Values[i], tc.values[i])
					}
				}
			}
		})
	}
}

func TestBinaryRequestRejects(t *testing.T) {
	valid := AppendBinaryRequest(nil, OpContains, []uint64{1, 2})
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name    string
		frame   []byte
		wantErr error
	}{
		{"empty", nil, ErrMalformed},
		{"short header", valid[:reqHeaderLen-1], ErrMalformed},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrMalformed},
		{"bad version", mutate(func(b []byte) []byte { b[2] = 9; return b }), ErrMalformed},
		{"bad op", mutate(func(b []byte) []byte { b[3] = 77; return b }), ErrMalformed},
		{"truncated keys", valid[:len(valid)-3], ErrMalformed},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), ErrMalformed},
		{"count over batch cap", mutate(func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0, 0 // count = 65535 > MaxWireBatch
			return b
		}), ErrTooLarge},
		{"count lies about length", mutate(func(b []byte) []byte { b[4] = 3; return b }), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req Request
			if err := DecodeBinaryRequest(tc.frame, &req); !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestDecodeJSONKeys(t *testing.T) {
	cases := []struct {
		name     string
		body     string
		wantErr  error
		wantKeys []uint64
	}{
		{"single key", `{"key": 7}`, nil, []uint64{7}},
		{"key zero", `{"key": 0}`, nil, []uint64{0}},
		{"batch", `{"keys": [1, 2, 3]}`, nil, []uint64{1, 2, 3}},
		{"not json", `{`, ErrMalformed, nil},
		{"wrong type", `{"key": "seven"}`, ErrMalformed, nil},
		{"both key and keys", `{"key": 1, "keys": [2]}`, ErrMalformed, nil},
		{"neither", `{}`, ErrMalformed, nil},
		{"empty keys", `{"keys": []}`, ErrMalformed, nil},
		{"negative key", `{"key": -1}`, ErrMalformed, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req Request
			err := DecodeJSONKeys(OpContains, []byte(tc.body), &req)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Keys) != len(tc.wantKeys) {
				t.Fatalf("got %d keys, want %d", len(req.Keys), len(tc.wantKeys))
			}
			for i := range tc.wantKeys {
				if req.Keys[i] != tc.wantKeys[i] {
					t.Fatalf("key %d = %d, want %d", i, req.Keys[i], tc.wantKeys[i])
				}
			}
		})
	}
}

func TestDecodeJSONKeysTooLarge(t *testing.T) {
	body := []byte(`{"keys": [`)
	for i := 0; i <= MaxWireBatch; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '1')
	}
	body = append(body, `]}`...)
	var req Request
	if err := DecodeJSONKeys(OpContains, body, &req); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
}

// TestDecodeRequestDispatch checks the content-type switch: the binary
// parser owns its op byte, the JSON parser takes the route's.
func TestDecodeRequestDispatch(t *testing.T) {
	var req Request
	frame := AppendBinaryRequest(nil, OpGet, []uint64{5})
	if err := DecodeRequest(BinaryContentType, OpContains, frame, &req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpGet {
		t.Fatalf("binary decode op = %d, want the frame's op %d", req.Op, OpGet)
	}
	if err := DecodeRequest("application/json", OpContains, []byte(`{"key": 5}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpContains {
		t.Fatalf("json decode op = %d, want the route's op %d", req.Op, OpContains)
	}
}

// refBinaryResponse is a per-bit reference encoder for the response
// frame, written straight from the format comment in wire.go.
func refBinaryResponse(op byte, found []bool, values []uint64) []byte {
	n := len(found)
	frame := []byte{'B', 'R', wireVersion, op, byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
	bitmap := make([]byte, (n+7)/8)
	for i, ok := range found {
		if ok {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	frame = append(frame, bitmap...)
	if op == OpGet {
		for _, v := range values {
			for s := 0; s < 64; s += 8 {
				frame = append(frame, byte(v>>s))
			}
		}
	}
	return frame
}

// TestBinaryCodecMatchesReference checks the unrolled bitmap pack and
// the indexed key decode against the reference encoder at every
// partial-byte count and at the batch-size edges, for both ops, and
// that decode ∘ encode is the identity on requests and responses.
func TestBinaryCodecMatchesReference(t *testing.T) {
	counts := []int{255, 256, 4095, 4096}
	for n := 0; n <= 17; n++ {
		counts = append(counts, n)
	}
	prefix := []byte("prefix") // the encoders append, never overwrite
	var req Request
	var resp Response
	for _, op := range []byte{OpContains, OpGet} {
		for _, n := range counts {
			keys := make([]uint64, n)
			found := make([]bool, n)
			values := make([]uint64, n)
			x := uint64(n)*0x9E3779B97F4A7C15 + uint64(op)
			for i := range keys {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				keys[i] = x
				found[i] = x>>40&1 == 1
				if found[i] {
					values[i] = x >> 3
				}
			}

			frame := AppendBinaryResponse(append([]byte(nil), prefix...), op, found, values)
			want := refBinaryResponse(op, found, values)
			if !bytes.Equal(frame[:len(prefix)], prefix) || !bytes.Equal(frame[len(prefix):], want) {
				t.Fatalf("op %d, %d answers: response frame differs from the reference encoder", op, n)
			}
			if err := DecodeBinaryResponse(frame[len(prefix):], &resp); err != nil {
				t.Fatal(err)
			}
			for i := range found {
				if resp.Found[i] != found[i] || (op == OpGet && resp.Values[i] != values[i]) {
					t.Fatalf("op %d, %d answers: answer %d did not round-trip", op, n, i)
				}
			}

			if err := DecodeBinaryRequest(AppendBinaryRequest(nil, op, keys), &req); err != nil {
				t.Fatal(err)
			}
			if req.Op != op || len(req.Keys) != n {
				t.Fatalf("decoded (op %d, %d keys), want (op %d, %d keys)", req.Op, len(req.Keys), op, n)
			}
			for i := range keys {
				if req.Keys[i] != keys[i] {
					t.Fatalf("op %d, %d keys: key %d = %#x, want %#x", op, n, i, req.Keys[i], keys[i])
				}
			}
		}
	}
}

var wireSink int

// BenchmarkWireProbeFrame decodes a 4096-key request frame and encodes
// its contains response with every other key found: the codec half of
// a served probe_batch round trip. ns/key is per key.
func BenchmarkWireProbeFrame(b *testing.B) {
	keys := make([]uint64, MaxWireBatch)
	found := make([]bool, MaxWireBatch)
	for i := range keys {
		keys[i] = uint64(i) * 0x9E3779B97F4A7C15
		found[i] = i&1 == 0
	}
	frame := AppendBinaryRequest(nil, OpContains, keys)
	var req Request
	var resp []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeBinaryRequest(frame, &req); err != nil {
			b.Fatal(err)
		}
		resp = AppendBinaryResponse(resp[:0], OpContains, found[:len(req.Keys)], nil)
	}
	wireSink = len(resp)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}
