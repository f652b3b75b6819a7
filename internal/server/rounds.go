package server

import "strconv"

// The codec half of the served request shapes, for measurement: each
// round decodes one request body into warm scratch and appends its
// reply, with no filter or store behind it. The codec tests and
// benchmarks use the same bodies; experiment E24 reports each round's
// ns per key as context for the kernels' claims.

// CodecRound is one request shape's codec half.
type CodecRound struct {
	Name string
	Keys int          // keys per request
	Run  func() error // one decode and reply over the round's scratch
}

// CodecRounds returns the binary probe frame of MaxWireBatch keys (the
// served probe_batch request) and the JSON bodies of a point probe, a
// 16-entry put as kv_write sends it and a MaxWireBatch-key list.
func CodecRounds() []CodecRound {
	keys := make([]uint64, MaxWireBatch)
	found := make([]bool, MaxWireBatch)
	for i := range keys {
		keys[i] = uint64(i) * 0x9E3779B97F4A7C15
		found[i] = i&1 == 0
	}
	frame := AppendBinaryRequest(nil, OpContains, keys)
	var req Request
	var resp []byte
	json := func(body []byte, put bool) func() error {
		sc := &probeScratch{body: body}
		return func() error { return jsonRound(sc, put) }
	}
	return []CodecRound{
		{"wire_probe_frame", MaxWireBatch, func() error {
			if err := DecodeBinaryRequest(frame, &req); err != nil {
				return err
			}
			resp = AppendBinaryResponse(resp[:0], OpContains, found[:len(req.Keys)], nil)
			return nil
		}},
		{"json_point", 1, json(jsonPointBody, false)},
		{"json_put16", 16, json(jsonPutBody(16), true)},
		{"json_keys4096", MaxWireBatch, json(jsonKeysBody(MaxWireBatch), false)},
	}
}

// jsonPointBody, jsonPutBody and jsonKeysBody are the JSON bodies of
// the rounds: a point probe, a put as the kv_write workload sends it,
// and a list of n keys.
var jsonPointBody = []byte(`{"key":11400714819323198485}`)

func jsonPutBody(n int) []byte {
	dst := []byte(`{"entries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		k := uint64(i+1) * 0x9E3779B97F4A7C15
		dst = strconv.AppendUint(append(dst, `{"key":`...), k, 10)
		dst = strconv.AppendUint(append(dst, `,"value":`...), k>>20, 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

func jsonKeysBody(n int) []byte {
	dst := []byte(`{"keys":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(i)*0x9E3779B97F4A7C15, 10)
	}
	return append(dst, "]}"...)
}

// jsonRound is a data route's codec half over scratch: decode sc.body,
// then append the reply (a contains answer with odd keys found, or the
// put acknowledgement) to sc.resp.
func jsonRound(sc *probeScratch, put bool) error {
	if put {
		entries, err := decodePutBody(sc.body, sc.entries)
		if err != nil {
			return err
		}
		sc.entries = entries
		sc.resp = append(sc.resp[:0], okReply...)
		return nil
	}
	point, err := decodeJSONKeys(OpContains, sc.body, &sc.req)
	if err != nil {
		return err
	}
	sc.size(len(sc.req.Keys))
	for i, k := range sc.req.Keys {
		sc.found[i] = k&1 == 1
	}
	sc.resp = appendContainsReply(sc.resp[:0], point, sc.found)
	return nil
}
