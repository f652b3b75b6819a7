package server

import (
	"bytes"
	"errors"
	"testing"

	"beyondbloom/internal/lsm"
)

// FuzzRequestDecode throws arbitrary bytes at the single request-decode
// entry point (binary frames and JSON bodies) and checks the parser's
// contract: it either rejects with a typed error or returns a request
// that is in-bounds, canonical (binary re-encodes to the input bytes),
// and round-trips through the response encoder; a JSON body decodes as
// encoding/json decodes it (checkOracle). The checked-in corpus under
// testdata/fuzz/FuzzRequestDecode seeds the interesting shapes:
// truncated frames, lying counts, oversized batches, malformed JSON,
// and encoding/json's corners (folded and escaped names, duplicates,
// nulls, number forms, nesting depth).
func FuzzRequestDecode(f *testing.F) {
	// Valid inputs.
	f.Add([]byte(`{"key": 7}`), false)
	f.Add([]byte(`{"keys": [1, 2, 3]}`), false)
	f.Add(AppendBinaryRequest(nil, OpContains, []uint64{1, 2}), true)
	f.Add(AppendBinaryRequest(nil, OpGet, []uint64{^uint64(0)}), true)
	f.Add(AppendBinaryRequest(nil, OpContains, nil), true)
	// Malformed inputs.
	f.Add([]byte(`{`), false)
	f.Add([]byte(`{"key": 1, "keys": [2]}`), false)
	f.Add([]byte(`{"keys": []}`), false)
	f.Add([]byte("BQ"), true)
	f.Add(AppendBinaryRequest(nil, OpContains, []uint64{1, 2})[:12], true)         // truncated keys
	f.Add(append(AppendBinaryRequest(nil, OpContains, []uint64{1}), 0xee), true)   // trailing byte
	f.Add([]byte{'B', 'Q', wireVersion, OpContains, 0xff, 0xff, 0xff, 0xff}, true) // count = 4B keys
	f.Add([]byte{'B', 'R', wireVersion, OpContains, 1, 0, 0, 0, 1}, true)          // response magic as request
	f.Add([]byte{'B', 'Q', 99, OpContains, 0, 0, 0, 0}, true)                      // future version
	f.Add([]byte{'B', 'Q', wireVersion, 99, 0, 0, 0, 0}, true)                     // unknown op

	f.Fuzz(func(t *testing.T, data []byte, binary bool) {
		contentType := "application/json"
		if binary {
			contentType = BinaryContentType
		}
		// Reuse a slice with stale words, which no decode may show.
		stale := []uint64{0xdead, 0xdead, 0xdead, 0xdead, 0xdead, 0xdead, 0xdead, 0xdead}
		req := Request{Keys: stale[:0]}
		err := DecodeRequest(contentType, OpContains, data, &req)
		if !binary {
			point, want, werr := oracleKeys(data)
			var got []uint64
			if err == nil {
				got = req.Keys
				if p, _ := decodeJSONKeys(OpContains, data, &Request{}); p != point {
					t.Fatalf("%q: point = %v, encoding/json says %v", data, p, point)
				}
			}
			checkOracle(t, data, got, want, err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("decode error is not typed: %v", err)
			}
			return
		}
		if !validOp(req.Op) {
			t.Fatalf("accepted request with invalid op %d", req.Op)
		}
		if len(req.Keys) > MaxWireBatch {
			t.Fatalf("accepted %d keys, cap is %d", len(req.Keys), MaxWireBatch)
		}
		if !binary && len(req.Keys) == 0 {
			t.Fatal("JSON decode accepted an empty key set")
		}
		if binary {
			// The binary format is canonical: what decoded must re-encode
			// to the exact input bytes, or two different frames could mean
			// the same request.
			if again := AppendBinaryRequest(nil, req.Op, req.Keys); !bytes.Equal(again, data) {
				t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, again)
			}
		}
		// Any accepted request's answer must round-trip the response
		// frame exactly.
		found := make([]bool, len(req.Keys))
		values := make([]uint64, len(req.Keys))
		for i, k := range req.Keys {
			found[i] = k&1 == 1
			if req.Op == OpGet && found[i] {
				values[i] = k
			}
		}
		frame := AppendBinaryResponse(nil, req.Op, found, values)
		var resp Response
		if err := DecodeBinaryResponse(frame, &resp); err != nil {
			t.Fatalf("encoded response does not decode: %v", err)
		}
		if resp.Op != req.Op || len(resp.Found) != len(found) {
			t.Fatalf("response round trip changed shape: %+v", resp)
		}
		for i := range found {
			if resp.Found[i] != found[i] {
				t.Fatalf("found[%d] flipped across the wire", i)
			}
			if req.Op == OpGet && resp.Values[i] != values[i] {
				t.Fatalf("values[%d] corrupted across the wire", i)
			}
		}
	})
}

// FuzzPutBody holds the /v1/put decoder to encoding/json: every body
// is accepted or refused alike (with the one ErrTooLarge divergence)
// and decodes to the same entries, through a scratch slice full of
// stale entries. testdata/fuzz/FuzzPutBody seeds the corners.
func FuzzPutBody(f *testing.F) {
	f.Add([]byte(`{"key": 1, "value": 2}`))
	f.Add(jsonPutBody(16))
	f.Add([]byte(`{"entries": [{"key": 1, "value": 2, "tombstone": true}], "entries": [{"key": 5}, null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		stale := make([]lsm.Entry, 8)
		for i := range stale {
			stale[i] = lsm.Entry{Key: 0xdead, Value: 0xdead, Tombstone: true}
		}
		got, err := decodePutBody(data, stale[:0])
		want, werr := oraclePut(data)
		checkOracle(t, data, got, want, err, werr)
	})
}
