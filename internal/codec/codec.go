// Package codec is the binary persistence substrate shared by every
// serializable structure in the library. It defines one framed,
// little-endian wire format — magic, format version, object kind,
// payload length, payload checksum — plus append-only encode and
// checked decode helpers, so corrupt or truncated files fail loudly
// with an error instead of decoding into garbage.
//
// Layout of one frame (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "BBF1"
//	4       2     format version (currently 1)
//	6       2     kind (object kind / filter TypeID, see core)
//	8       8     payload length in bytes
//	16      4     CRC-32C (Castagnoli) of the payload
//	20      -     payload
//
// Composite objects nest: a filter's payload embeds the frames of its
// substrate parts (bit vectors, packed arrays), so the outer checksum
// covers the inner frames and a single flipped bit anywhere fails the
// outermost read. Large multi-part objects (sharded filters, LSM
// manifests) may instead write a sequence of sibling frames; each is
// still individually checksummed and length-prefixed, which is what
// makes shard-parallel decoding possible.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

const (
	// Magic identifies a frame; "BBF1" in little-endian byte order.
	Magic uint32 = 0x31464242
	// Version is the current format version. Decoders reject frames
	// with a newer version instead of misinterpreting them.
	Version uint16 = 1
	// HeaderSize is the fixed byte length of a frame header.
	HeaderSize = 20
	// MaxPayload bounds a single frame's payload (1 GiB). Real filters
	// are far smaller; the bound exists so a corrupt length field fails
	// fast instead of driving a giant allocation.
	MaxPayload = 1 << 30
)

// Sentinel errors. All decode failures wrap ErrCorrupt so callers can
// detect "this file is damaged" with errors.Is regardless of the
// specific failure.
var (
	ErrCorrupt = errors.New("codec: corrupt data")
	// ErrVersion wraps ErrCorrupt: the frame is from a newer format.
	ErrVersion = fmt.Errorf("%w: unsupported format version", ErrCorrupt)
	// ErrKind wraps ErrCorrupt: the frame holds a different object kind
	// than the decoder expected.
	ErrKind = fmt.Errorf("%w: unexpected object kind", ErrCorrupt)
)

// Object kinds 1–15 are reserved for the substrate containers defined
// here; kinds ≥ 16 are filter TypeIDs allocated in the core registry
// (see core.Register and the TypeID table in DESIGN.md §7).
const (
	KindVector   uint16 = 1 // bitvec.Vector
	KindPacked   uint16 = 2 // bitvec.Packed
	KindSequence uint16 = 3 // ef.Sequence
	KindQTable   uint16 = 4 // quotient table (shared by filter/maplet variants)
	KindMaplet   uint16 = 5 // quotient.Maplet (key → value approximate map)
	// KindWALRecord frames one write-ahead-log record (wal package): a
	// batch of mutations stamped with contiguous log sequence numbers.
	KindWALRecord uint16 = 6
	// KindMapletV2 wraps a maplet image together with its packed-value
	// geometry — the LSM's (run id, block offset) layout. A bare
	// KindMaplet frame remains the v1 run-id-only image.
	KindMapletV2 uint16 = 7
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putU16/putU32/putU64 are the little-endian primitives (explicit so the
// format is identical on every platform).
func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func getU64(b []byte) uint64 { return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32 }

// appendHeader appends a frame header for kind over payload to dst.
func appendHeader(dst []byte, kind uint16, payload []byte) []byte {
	var h [HeaderSize]byte
	putU32(h[0:], Magic)
	putU16(h[4:], Version)
	putU16(h[6:], kind)
	putU64(h[8:], uint64(len(payload)))
	putU32(h[16:], crc32.Checksum(payload, castagnoli))
	return append(dst, h[:]...)
}

// WriteFrame writes one complete frame (header + payload) for kind.
func WriteFrame(w io.Writer, kind uint16, payload []byte) (int64, error) {
	hdr := appendHeader(make([]byte, 0, HeaderSize), kind, payload)
	n, err := w.Write(hdr)
	written := int64(n)
	if err != nil {
		return written, err
	}
	n, err = w.Write(payload)
	return written + int64(n), err
}

// ParseHeader validates a raw header and returns its kind and payload
// length. The payload checksum is verified later by ReadFrame.
func ParseHeader(hdr []byte) (kind uint16, length uint64, err error) {
	if len(hdr) < HeaderSize {
		return 0, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if getU32(hdr) != Magic {
		return 0, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, getU32(hdr))
	}
	if v := getU16(hdr[4:]); v != Version {
		return 0, 0, fmt.Errorf("%w %d", ErrVersion, v)
	}
	length = getU64(hdr[8:])
	if length > MaxPayload {
		return 0, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, length)
	}
	return getU16(hdr[6:]), length, nil
}

// PeekKind reads exactly one frame header from r and returns its kind
// together with the raw header bytes, so the caller can dispatch on the
// kind and then replay the header to the chosen decoder (see core.Load).
func PeekKind(r io.Reader) (kind uint16, hdr [HeaderSize]byte, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, hdr, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	kind, _, err = ParseHeader(hdr[:])
	return kind, hdr, err
}

// ReadFrame reads one frame from r, verifies magic, version, kind and
// checksum, and returns the payload. The payload buffer is read in
// bounded chunks so a corrupt length field cannot drive one giant
// allocation: memory grows only as fast as data actually arrives.
func ReadFrame(r io.Reader, wantKind uint16) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	kind, length, err := ParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrKind, kind, wantKind)
	}
	payload, err := readPayload(r, length)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(payload, castagnoli), getU32(hdr[16:]); got != want {
		return nil, fmt.Errorf("%w: payload checksum %#x, header says %#x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// ReadRaw reads one complete frame (header + payload) from r and
// returns its kind and raw bytes without verifying the payload
// checksum. Multi-part readers use it to slice a stream of sibling
// frames into independent buffers that separate goroutines then decode
// (and checksum) in parallel.
func ReadRaw(r io.Reader) (kind uint16, raw []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	kind, length, err := ParseHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	payload, err := readPayload(r, length)
	if err != nil {
		return 0, nil, err
	}
	return kind, append(hdr[:], payload...), nil
}

// readPayload reads length bytes in chunks of at most 1 MiB.
func readPayload(r io.Reader, length uint64) ([]byte, error) {
	const chunk = 1 << 20
	cap0 := length
	if cap0 > chunk {
		cap0 = chunk
	}
	buf := make([]byte, 0, cap0)
	for uint64(len(buf)) < length {
		n := length - uint64(len(buf))
		if n > chunk {
			n = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
		}
	}
	return buf, nil
}

// Enc builds a frame payload by appending fields. It also implements
// io.Writer so nested structures can stream their own frames into an
// enclosing payload via WriteTo.
type Enc struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the accumulated payload length.
func (e *Enc) Len() int { return len(e.buf) }

// Write implements io.Writer (for nesting sub-frames).
func (e *Enc) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) {
	var b [2]byte
	putU16(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	var b [4]byte
	putU32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	putU64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// F64 appends a float64 by its IEEE-754 bit pattern (exact round-trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// U64s appends a length-prefixed slice of uint64 words. The buffer
// grows once, to its final size, and the words are filled in by index.
func (e *Enc) U64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(vs))[:off+8*len(vs)]
	b := e.buf[off:]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

// Dec consumes a frame payload. All getters record the first error and
// return zero values afterwards; callers check Err (or Finish) once at
// the end instead of after every field. It also implements io.Reader so
// nested structures can decode their own frames from an enclosing
// payload via ReadFrom.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unconsumed payload bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Finish returns the first decode error, or an error if unconsumed
// bytes remain (trailing garbage in a checksummed payload means the
// encoder and decoder disagree about the format — fail loudly).
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Read implements io.Reader over the unconsumed payload.
func (d *Dec) Read(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.off >= len(d.buf) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[d.off:])
	d.off += n
	return n, nil
}

// U8 consumes one byte.
func (d *Dec) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool consumes one byte as a bool; any value other than 0 or 1 is an
// error (a canonical encoding has exactly one representation).
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		if d.err == nil {
			d.err = fmt.Errorf("%w: non-canonical bool %d", ErrCorrupt, v)
		}
		return false
	}
	return v == 1
}

// U16 consumes a little-endian uint16.
func (d *Dec) U16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.fail("u16")
		return 0
	}
	v := getU16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 consumes a little-endian uint32.
func (d *Dec) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := getU32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 consumes a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := getU64(d.buf[d.off:])
	d.off += 8
	return v
}

// F64 consumes a float64 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// U64s consumes a length-prefixed slice of uint64 words. The count is
// validated against the remaining payload before allocating, so a
// corrupt count cannot drive a giant allocation.
func (d *Dec) U64s() []uint64 {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off)/8 {
		d.err = fmt.Errorf("%w: word count %d exceeds remaining payload", ErrCorrupt, n)
		return nil
	}
	vs := make([]uint64, n)
	b := d.buf[d.off : d.off+8*len(vs)]
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	d.off += len(b)
	return vs
}

// Corruptf records (if none is set yet) and returns a decode
// consistency error wrapping ErrCorrupt. Structure decoders use it for
// cross-field validation failures (a length that disagrees with a
// count, an out-of-range parameter).
func (d *Dec) Corruptf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	return d.err
}
