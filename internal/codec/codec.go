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
// Encode and Decode are the envelope every structure goes through: a
// structure supplies only the code for its own fields, and Decode owns
// the rest — reading and checksumming the frame, and requiring the
// payload to be consumed exactly. Filters add their construction Spec
// to the envelope through core.EncodeFrame and core.DecodeFrame.
//
// A decoder never sizes an array from a count it has not checked
// against the bytes that remain: a frame's payload is read in bounded
// chunks, U64s bounds its word count, and Claim bounds any other
// claimed count, so memory grows only with the data that actually
// arrives.
//
// A frame read from a Dec — a nested frame, or a whole file the caller
// has already read into memory and wrapped in NewDec — is decoded in
// place: its claimed length is checked against the bytes the Dec holds,
// and its payload is a sub-slice of them, not a copy. Any other reader
// takes the bounded-chunk path.
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
	"bytes"
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
	// ErrTruncated wraps ErrCorrupt: the data ends inside a frame.
	ErrTruncated = fmt.Errorf("%w: truncated frame", ErrCorrupt)
	// ErrChecksum wraps ErrCorrupt: a payload does not match the
	// checksum in its frame header.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	// ErrTrailing wraps ErrCorrupt: bytes follow the data that was
	// expected to end the input.
	ErrTrailing = fmt.Errorf("%w: trailing bytes", ErrCorrupt)
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

// PeekKind reads the header of the next frame in r and returns its
// kind together with a reader that yields the whole frame, header
// included, and then the rest of r — so the caller can dispatch on the
// kind and hand the frame to the chosen decoder (see core.Load). For a
// *Dec that reader is r itself, so the frame still decodes in place.
func PeekKind(r io.Reader) (kind uint16, frame io.Reader, err error) {
	hdr, kind, _, err := readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if _, ok := r.(*Dec); ok {
		return kind, r, nil
	}
	return kind, io.MultiReader(bytes.NewReader(hdr[:]), r), nil
}

// ReadFrame reads one frame from r, verifies magic, version, kind and
// checksum, and returns the payload. From a *Dec the payload is a
// sub-slice of the Dec's bytes; from any other reader it is read in
// bounded chunks, so a corrupt length field cannot drive one giant
// allocation: memory grows only as fast as data actually arrives.
func ReadFrame(r io.Reader, wantKind uint16) ([]byte, error) {
	hdr, kind, length, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrKind, kind, wantKind)
	}
	raw, err := readFrame(r, hdr, length)
	if err != nil {
		return nil, err
	}
	payload := raw[HeaderSize:]
	if got, want := crc32.Checksum(payload, castagnoli), getU32(hdr[16:]); got != want {
		return nil, fmt.Errorf("%w: payload checksum %#x, header says %#x", ErrChecksum, got, want)
	}
	return payload, nil
}

// ReadRaw reads one complete frame (header + payload) from r and
// returns its kind and raw bytes without verifying the payload
// checksum. Multi-part readers use it to slice a stream of sibling
// frames into independent buffers that separate goroutines then decode
// (and checksum) in parallel. From a *Dec the bytes are a sub-slice of
// the Dec's.
func ReadRaw(r io.Reader) (kind uint16, raw []byte, err error) {
	hdr, kind, length, err := readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	raw, err = readFrame(r, hdr, length)
	if err != nil {
		return 0, nil, err
	}
	return kind, raw, nil
}

// readHeader reads and parses the next frame header from r. A *Dec is
// only peeked — readFrame consumes the whole frame from it — while any
// other reader is advanced past the header.
func readHeader(r io.Reader) (hdr [HeaderSize]byte, kind uint16, length uint64, err error) {
	if d, ok := r.(*Dec); ok {
		if d.err != nil {
			return hdr, 0, 0, d.err
		}
		if d.Remaining() < HeaderSize {
			return hdr, 0, 0, fmt.Errorf("%w: %d bytes remain for a %d-byte header", ErrTruncated, d.Remaining(), HeaderSize)
		}
		copy(hdr[:], d.buf[d.off:])
	} else if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return hdr, 0, 0, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	kind, length, err = ParseHeader(hdr[:])
	return hdr, kind, length, err
}

// readFrame returns, in one slice, the whole frame whose header
// readHeader returned: hdr and a payload of length bytes. From a *Dec
// it checks length against the bytes that remain and slices the frame
// off in place (capacity capped, so no append can reach the bytes after
// it); from any other reader it reads the payload in chunks of at most
// 1 MiB.
func readFrame(r io.Reader, hdr [HeaderSize]byte, length uint64) ([]byte, error) {
	if d, ok := r.(*Dec); ok {
		if rest := uint64(d.Remaining() - HeaderSize); length > rest {
			return nil, fmt.Errorf("%w: payload of %d bytes claimed, %d remain", ErrTruncated, length, rest)
		}
		end := d.off + HeaderSize + int(length)
		raw := d.buf[d.off:end:end]
		d.off = end
		return raw, nil
	}
	const chunk = 1 << 20
	buf := make([]byte, HeaderSize, HeaderSize+min(length, chunk))
	copy(buf, hdr[:])
	for uint64(len(buf)-HeaderSize) < length {
		n := min(length-uint64(len(buf)-HeaderSize), chunk)
		start := len(buf)
		buf = slices.Grow(buf, int(n))[:start+int(n)]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: reading payload: %v", ErrTruncated, err)
		}
	}
	return buf, nil
}

// Encode writes one frame of kind whose payload is the fields fill
// appends.
func Encode(w io.Writer, kind uint16, fill func(*Enc) error) (int64, error) {
	var e Enc
	if err := fill(&e); err != nil {
		return 0, err
	}
	return WriteFrame(w, kind, e.buf)
}

// Decode reads one frame of kind from r, hands its payload to read, and
// requires read to consume the payload exactly. It returns the frame's
// size in bytes. Every failure wraps ErrCorrupt unless read returns an
// error that does not.
func Decode(r io.Reader, kind uint16, read func(*Dec) error) (int64, error) {
	payload, err := ReadFrame(r, kind)
	if err != nil {
		return 0, err
	}
	d := NewDec(payload)
	if err := read(d); err != nil {
		return 0, err
	}
	if err := d.Finish(); err != nil {
		return 0, err
	}
	return int64(HeaderSize + len(payload)), nil
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
		return fmt.Errorf("%w: %d payload bytes left unread", ErrTrailing, len(d.buf)-d.off)
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
// claimed against the remaining payload before allocating, so a
// corrupt count cannot drive a giant allocation.
func (d *Dec) U64s() []uint64 {
	n := d.U64()
	if !d.Claim(n, 8, "word") {
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

// Claim reports whether n items of at least size bytes each can still
// follow in the payload, recording an error if they cannot (or if an
// earlier read failed). Decoders call it before sizing an array from a
// count the payload merely claims.
func (d *Dec) Claim(n uint64, size int, what string) bool {
	if d.err == nil && n <= uint64(d.Remaining()/size) {
		return true
	}
	d.failClaim(n, what)
	return false
}

// failClaim records Claim's error; kept apart so Claim inlines.
func (d *Dec) failClaim(n uint64, what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %d %s(s) claimed, %d payload bytes remain", ErrCorrupt, n, what, d.Remaining())
	}
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
