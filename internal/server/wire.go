// Package server is the network front-end of the library: a
// backpressured membership/KV service over concurrent.Sharded filters
// and the lsm.Store (the tutorial's §3.3 serving story). A point
// request probes the filter or store directly on its caller's
// goroutine; batching is the client's job, and a batch arrives as one
// frame of up to MaxWireBatch keys that goes down the
// hash-once/probe-many kernels whole. The pieces compose bottom-up:
//
//   - wire.go: the pinned little-endian binary frame for hot clients.
//   - json.go: the JSON bodies of the data routes, scanned and encoded
//     without reflection into pooled scratch.
//   - reload.go: zero-downtime filter reload by atomic snapshot
//     hand-off from .bbf files.
//   - metrics.go: atomic counters rendered at /metrics and /debug/vars.
//   - engine.go: the service core — admission control, backpressure
//     riding the LSM write-stall path, and the two backends.
//   - server.go: the HTTP layer (cmd/filterd is a thin main around it).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Binary wire format v1 (pinned by the golden tests in testdata/):
//
//	request:  'B' 'Q' ver=1 op count:u32le count x key:u64le
//	response: 'B' 'R' ver=1 op count:u32le bitmap:ceil(count/8) bytes
//	          [count x value:u64le when op == OpGet]
//
// The found bitmap is LSB-first: key i's answer is bit i&7 of byte
// i>>3. Values of absent keys are encoded as zero. Frames are
// fixed-size given (op, count), carry no padding, and reject trailing
// garbage — a frame is the whole body, so a truncated or oversized
// request can never be half-read as a smaller valid one.
const (
	wireVersion = 1

	// OpContains probes the membership filter.
	OpContains byte = 1
	// OpGet performs LSM point lookups.
	OpGet byte = 2
)

// MaxWireBatch caps the keys in one request (JSON or binary). Larger
// batches are rejected at decode time, before any allocation sized by
// untrusted input.
const MaxWireBatch = 4096

// BinaryContentType selects the binary frame parser on /v1/probe.
const BinaryContentType = "application/x-bbf1"

// Wire decode failures. ErrTooLarge is split out so the HTTP layer can
// answer 413 instead of 400.
var (
	ErrMalformed = errors.New("server: malformed request")
	ErrTooLarge  = errors.New("server: batch exceeds MaxWireBatch")
)

const (
	reqHeaderLen  = 8 // magic(2) ver(1) op(1) count(4)
	respHeaderLen = 8
)

// Request is one decoded probe request: an op and its keys. Keys is
// reused across decodes into the same Request, so steady-state parsing
// does not allocate.
type Request struct {
	Op   byte
	Keys []uint64
}

// Response is a decoded binary response (client side and tests).
type Response struct {
	Op     byte
	Found  []bool
	Values []uint64 // nil unless Op == OpGet
}

func validOp(op byte) bool { return op == OpContains || op == OpGet }

// DecodeBinaryRequest parses one binary request frame into req,
// reusing req.Keys. The frame must span data exactly: truncated input,
// trailing bytes, an unknown version or op, and counts above
// MaxWireBatch are all rejected (wrapping ErrMalformed/ErrTooLarge)
// before any key is read.
func DecodeBinaryRequest(data []byte, req *Request) error {
	if len(data) < reqHeaderLen {
		return fmt.Errorf("%w: frame truncated at %d bytes", ErrMalformed, len(data))
	}
	if data[0] != 'B' || data[1] != 'Q' {
		return fmt.Errorf("%w: bad request magic %q", ErrMalformed, data[:2])
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: unsupported wire version %d", ErrMalformed, data[2])
	}
	op := data[3]
	if !validOp(op) {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	if count > MaxWireBatch {
		return fmt.Errorf("%w: %d keys", ErrTooLarge, count)
	}
	want := reqHeaderLen + 8*int(count)
	if len(data) != want {
		return fmt.Errorf("%w: frame is %d bytes, op/count say %d", ErrMalformed, len(data), want)
	}
	req.Op = op
	n := int(count)
	if cap(req.Keys) < n {
		req.Keys = make([]uint64, n)
	}
	req.Keys = req.Keys[:n]
	getUint64s(req.Keys, data[reqHeaderLen:want])
	return nil
}

// getUint64s fills dst with the little-endian words of src, eight per
// round: one bounds check per 64 bytes instead of two per word, which
// is what an indexed loop pays and what dominates a 4096-key decode.
func getUint64s(dst []uint64, src []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		d := (*[8]uint64)(dst[i:])
		s := (*[64]byte)(src[8*i:])
		d[0] = binary.LittleEndian.Uint64(s[0:])
		d[1] = binary.LittleEndian.Uint64(s[8:])
		d[2] = binary.LittleEndian.Uint64(s[16:])
		d[3] = binary.LittleEndian.Uint64(s[24:])
		d[4] = binary.LittleEndian.Uint64(s[32:])
		d[5] = binary.LittleEndian.Uint64(s[40:])
		d[6] = binary.LittleEndian.Uint64(s[48:])
		d[7] = binary.LittleEndian.Uint64(s[56:])
	}
	for ; i < len(dst); i++ {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}

// AppendBinaryRequest appends the canonical encoding of (op, keys) to
// dst and returns the extended slice.
func AppendBinaryRequest(dst []byte, op byte, keys []uint64) []byte {
	size := reqHeaderLen + 8*len(keys)
	dst = slices.Grow(dst, size)
	frame := dst[len(dst) : len(dst)+size]
	frame[0], frame[1], frame[2], frame[3] = 'B', 'Q', wireVersion, op
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(keys)))
	body := frame[reqHeaderLen:]
	for i, k := range keys {
		binary.LittleEndian.PutUint64(body[8*i:], k)
	}
	return dst[:len(dst)+size]
}

// AppendBinaryResponse appends a response frame for (op, found) — plus
// values when op is OpGet — to dst. len(values) must equal len(found)
// for OpGet; values is ignored for OpContains. The frame is sized up
// front and filled by index; the bitmap packs eight answers per byte
// with branch-free bool→bit terms, since a half-absent batch would
// mispredict a per-answer branch on every other key.
func AppendBinaryResponse(dst []byte, op byte, found []bool, values []uint64) []byte {
	n := len(found)
	size := respHeaderLen + (n+7)/8
	if op == OpGet {
		size += 8 * n
	}
	dst = slices.Grow(dst, size)
	frame := dst[len(dst) : len(dst)+size]
	frame[0], frame[1], frame[2], frame[3] = 'B', 'R', wireVersion, op
	binary.LittleEndian.PutUint32(frame[4:8], uint32(n))
	bitmap := frame[respHeaderLen : respHeaderLen+(n+7)/8]
	full := n &^ 7
	for i := 0; i < full; i += 8 {
		f := (*[8]bool)(found[i:])
		bitmap[i>>3] = bit(f[0]) | bit(f[1])<<1 | bit(f[2])<<2 | bit(f[3])<<3 |
			bit(f[4])<<4 | bit(f[5])<<5 | bit(f[6])<<6 | bit(f[7])<<7
	}
	if full < n {
		var b byte
		for i, ok := range found[full:] {
			b |= bit(ok) << i
		}
		bitmap[full>>3] = b
	}
	if op == OpGet {
		vals := frame[respHeaderLen+(n+7)/8:]
		for i, v := range values[:n] {
			binary.LittleEndian.PutUint64(vals[8*i:], v)
		}
	}
	return dst[:len(dst)+size]
}

// bit is b as 0 or 1. A bool is stored as 0 or 1, so the compiler
// lowers this to a zero-extending move, not a branch.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeBinaryResponse parses a response frame into resp, reusing its
// slices. Validation mirrors DecodeBinaryRequest.
func DecodeBinaryResponse(data []byte, resp *Response) error {
	if len(data) < respHeaderLen {
		return fmt.Errorf("%w: response truncated at %d bytes", ErrMalformed, len(data))
	}
	if data[0] != 'B' || data[1] != 'R' {
		return fmt.Errorf("%w: bad response magic %q", ErrMalformed, data[:2])
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: unsupported wire version %d", ErrMalformed, data[2])
	}
	op := data[3]
	if !validOp(op) {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	if count > MaxWireBatch {
		return fmt.Errorf("%w: %d answers", ErrTooLarge, count)
	}
	n := int(count)
	want := respHeaderLen + (n+7)/8
	if op == OpGet {
		want += 8 * n
	}
	if len(data) != want {
		return fmt.Errorf("%w: response is %d bytes, op/count say %d", ErrMalformed, len(data), want)
	}
	resp.Op = op
	if cap(resp.Found) < n {
		resp.Found = make([]bool, n)
	}
	resp.Found = resp.Found[:n]
	found := resp.Found
	bitmap := data[respHeaderLen : respHeaderLen+(n+7)/8]
	full := n &^ 7
	for i := 0; i < full; i += 8 {
		f, b := (*[8]bool)(found[i:]), bitmap[i>>3]
		f[0], f[1], f[2], f[3] = b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0
		f[4], f[5], f[6], f[7] = b&16 != 0, b&32 != 0, b&64 != 0, b&128 != 0
	}
	for i := full; i < n; i++ {
		found[i] = bitmap[i>>3]>>(i&7)&1 == 1
	}
	resp.Values = resp.Values[:0]
	if op == OpGet {
		if cap(resp.Values) < n {
			resp.Values = make([]uint64, n)
		}
		resp.Values = resp.Values[:n]
		getUint64s(resp.Values, data[respHeaderLen+(n+7)/8:])
	}
	return nil
}

// DecodeRequest dispatches on content type: BinaryContentType selects
// the binary frame parser (which carries its own op); anything else is
// parsed as JSON with the route-supplied op. This is the single entry
// point the fuzz harness drives.
func DecodeRequest(contentType string, op byte, data []byte, req *Request) error {
	if contentType == BinaryContentType {
		return DecodeBinaryRequest(data, req)
	}
	return DecodeJSONKeys(op, data, req)
}
