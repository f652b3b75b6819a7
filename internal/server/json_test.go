package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"beyondbloom/internal/lsm"
)

// The structs the data routes once decoded into by reflection. With
// the handlers' post-checks (oracleKeys, oraclePut) they are the oracle
// the scanner in json.go must agree with.
type jsonKeys struct {
	Key  *uint64  `json:"key"`
	Keys []uint64 `json:"keys"`
}

type jsonEntry struct {
	Key       uint64 `json:"key"`
	Value     uint64 `json:"value"`
	Tombstone bool   `json:"tombstone"`
}

type jsonPut struct {
	Key     *uint64     `json:"key"`
	Value   uint64      `json:"value"`
	Entries []jsonEntry `json:"entries"`
}

func oracleKeys(data []byte) (point bool, keys []uint64, err error) {
	var body jsonKeys
	if err := json.Unmarshal(data, &body); err != nil {
		return false, nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	switch {
	case body.Key != nil && body.Keys != nil:
		return false, nil, ErrMalformed
	case body.Key != nil:
		return true, []uint64{*body.Key}, nil
	case len(body.Keys) > MaxWireBatch:
		return false, nil, ErrTooLarge
	case len(body.Keys) > 0:
		return false, body.Keys, nil
	}
	return false, nil, ErrMalformed
}

func oraclePut(data []byte) ([]lsm.Entry, error) {
	var body jsonPut
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	switch {
	case body.Key != nil && body.Entries == nil:
		return []lsm.Entry{{Key: *body.Key, Value: body.Value}}, nil
	case body.Key == nil && len(body.Entries) > MaxWireBatch:
		return nil, ErrTooLarge
	case body.Key == nil && len(body.Entries) > 0:
		entries := make([]lsm.Entry, len(body.Entries))
		for i, e := range body.Entries {
			entries[i] = lsm.Entry{Key: e.Key, Value: e.Value, Tombstone: e.Tombstone}
		}
		return entries, nil
	}
	return nil, ErrMalformed
}

// checkOracle fails t unless the scanner's result on data matches the
// oracle's: the same decision, the same error class, equal values. The
// one allowed divergence is a list the scanner refuses with ErrTooLarge
// at its entry past MaxWireBatch, whatever follows it.
func checkOracle[T comparable](t *testing.T, data []byte, got, want []T, err, werr error) {
	t.Helper()
	if errors.Is(err, ErrTooLarge) && bytes.Count(data, []byte(",")) >= MaxWireBatch {
		return
	}
	show := data
	if len(show) > 200 {
		show = show[:200]
	}
	switch {
	case err != nil && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge):
		t.Fatalf("%q: untyped error %v", show, err)
	case (err == nil) != (werr == nil) || errors.Is(err, ErrTooLarge) != errors.Is(werr, ErrTooLarge):
		t.Fatalf("%q: scanner error %v, encoding/json error %v", show, err, werr)
	case err == nil && !slices.Equal(got, want):
		t.Fatalf("%q: scanner decoded %v, encoding/json %v", show, got, want)
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
	var req Request
	if err := DecodeJSONKeys(OpContains, jsonKeysBody(MaxWireBatch+1), &req); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
}

// TestJSONRepliesMatchEncoder pins every data-route reply, point and
// list, to the bytes json.Encoder writes for the maps the handlers used
// to encode by reflection.
func TestJSONRepliesMatchEncoder(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s reply:\n got %.200q\nwant %.200q", what, got, want)
		}
	}
	check("ok", okReply, encode(map[string]bool{"ok": true}))
	x := uint64(0x9E3779B97F4A7C15)
	for _, n := range []int{1, 2, 255, 4096} {
		found := make([]bool, n)
		values := make([]uint64, n)
		for i := range found {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			found[i] = x&1 == 1
			values[i] = x >> (x >> 58) // every digit count from 1 to 20
		}
		values[0] = math.MaxUint64
		values[n-1] = 0
		name := strconv.Itoa(n)
		check("contains list "+name, appendContainsReply([]byte{}, false, found),
			encode(map[string][]bool{"found": found}))
		check("get list "+name, appendGetReply(nil, false, found, values),
			encode(map[string]any{"values": values, "found": found}))
		for i := range found {
			check("contains point", appendContainsReply(nil, true, found[i:i+1]),
				encode(map[string]bool{"found": found[i]}))
			check("get point", appendGetReply(nil, true, found[i:i+1], values[i:i+1]),
				encode(map[string]any{"value": values[i], "found": found[i]}))
		}
	}
}

// TestJSONBodyZeroAlloc pins the JSON routes' codec half: at steady
// state, decoding a body into pooled scratch and appending its reply
// allocates nothing.
func TestJSONBodyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tc := range []struct {
		name string
		body []byte
		put  bool
	}{
		{"point", jsonPointBody, false},
		{"put16", jsonPutBody(16), true},
		{"keys4096", jsonKeysBody(MaxWireBatch), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &probeScratch{body: tc.body}
			run := func() {
				if err := jsonRound(sc, tc.put); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch slices
			if avg := testing.AllocsPerRun(100, run); avg != 0 {
				t.Fatalf("%s decode + encode allocates %.1f times per request at steady state, want 0", tc.name, avg)
			}
		})
	}
}
