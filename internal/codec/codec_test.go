package codec

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.Bool(true)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0102030405060708)
	e.F64(3.14159)
	e.U64s([]uint64{1, 2, 3, ^uint64(0)})

	var buf bytes.Buffer
	n, err := WriteFrame(&buf, 42, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(HeaderSize+e.Len()) {
		t.Fatalf("WriteFrame reported %d bytes, want %d", n, HeaderSize+e.Len())
	}

	payload, err := ReadFrame(bytes.NewReader(buf.Bytes()), 42)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDec(payload)
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if got := d.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0102030405060708 {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	ws := d.U64s()
	if len(ws) != 4 || ws[3] != ^uint64(0) {
		t.Errorf("U64s = %v", ws)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	var e Enc
	e.U64s([]uint64{10, 20, 30})
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 9, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, src := range sources {
		// Every single-byte flip must be detected; one in the payload
		// as a checksum mismatch.
		for i := range good {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			if _, err := ReadFrame(src.open(bad), 9); err == nil {
				t.Fatalf("%s: flip at byte %d decoded successfully", src.name, i)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: flip at byte %d: error %v does not wrap ErrCorrupt", src.name, i, err)
			} else if i >= HeaderSize && !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: flip at payload byte %d: error %v does not wrap ErrChecksum", src.name, i, err)
			}
		}
		// Truncation at every length must be detected.
		for n := 0; n < len(good); n++ {
			if _, err := ReadFrame(src.open(good[:n]), 9); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: truncation to %d bytes: %v", src.name, n, err)
			}
		}
		// Wrong expected kind.
		if _, err := ReadFrame(src.open(good), 10); !errors.Is(err, ErrKind) {
			t.Fatalf("%s: wrong kind: %v", src.name, err)
		}
	}
}

// sources are the two ways a frame reaches a reader: streamed from an
// io.Reader, or already in memory in a Dec, where it decodes in place.
var sources = []struct {
	name string
	open func([]byte) io.Reader
}{
	{"stream", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"in place", func(b []byte) io.Reader { return NewDec(b) }},
}

// TestReadFrameInPlace pins that a frame read from a Dec is not copied:
// the payload and raw frame are sub-slices of the Dec's bytes, capped
// so that appending to them cannot overwrite what follows, and the Dec
// is left just past the frame.
func TestReadFrameInPlace(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, 9, []byte{1, 2, 3})
	WriteFrame(&buf, 9, []byte{4, 5})
	data := buf.Bytes()
	d := NewDec(data)
	payload, err := ReadFrame(d, 9)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &data[HeaderSize] || cap(payload) != 3 {
		t.Fatalf("payload is not the in-place, capped sub-slice (cap %d)", cap(payload))
	}
	kind, raw, err := ReadRaw(d)
	if err != nil || kind != 9 {
		t.Fatalf("ReadRaw = %d, %v", kind, err)
	}
	if &raw[0] != &data[HeaderSize+3] || len(raw) != HeaderSize+2 || cap(raw) != len(raw) {
		t.Fatalf("raw frame is not the in-place, capped sub-slice (len %d cap %d)", len(raw), cap(raw))
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes remain after both frames", d.Remaining())
	}
}

func TestReadFrameHugeLengthDoesNotAllocate(t *testing.T) {
	var hdr [HeaderSize]byte
	putU32(hdr[0:], Magic)
	putU16(hdr[4:], Version)
	putU16(hdr[6:], 1)
	for _, src := range sources {
		putU64(hdr[8:], MaxPayload) // in-bounds length, but no data follows
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(src.open(hdr[:]), 1)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: lying length: %v", src.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("%s: lying length: %d bytes allocated", src.name, alloc)
		}
		putU64(hdr[8:], 1<<62) // out-of-bounds length
		if _, err := ReadFrame(src.open(hdr[:]), 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: giant length: %v", src.name, err)
		}
	}
}

func TestDecFinishTrailing(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	d.U8()
	if err := d.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestDecU64sCorruptCount(t *testing.T) {
	var e Enc
	e.U64(1 << 40) // claims 2^40 words with no data behind it
	d := NewDec(e.Bytes())
	if vs := d.U64s(); vs != nil {
		t.Fatalf("U64s returned %v for corrupt count", vs)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v", d.Err())
	}
}

func TestPeekKind(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 77, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		kind, frame, err := PeekKind(src.open(buf.Bytes()))
		if err != nil || kind != 77 {
			t.Fatalf("%s: PeekKind = %d, %v", src.name, kind, err)
		}
		// The returned reader yields the whole frame, header included.
		payload, err := ReadFrame(frame, 77)
		if err != nil || len(payload) != 3 {
			t.Fatalf("%s: read after PeekKind: %v", src.name, err)
		}
	}
}

// TestTruncationWrapsErrCorrupt cuts a golden frame at every byte
// offset and checks each reader's contract: the error must wrap
// ErrCorrupt and must NOT leak the raw io error through the chain —
// callers branch on ErrCorrupt (torn tail, repairable) and a bare
// io.ErrUnexpectedEOF would dodge that branch and escalate a routine
// crash tail into a fatal open error.
func TestTruncationWrapsErrCorrupt(t *testing.T) {
	var e Enc
	e.U64(0x1122334455667788)
	e.U64s([]uint64{5, 6, 7})
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 11, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()

	readers := []struct {
		name  string
		whole bool
		read  func(r io.Reader) error
	}{
		{"ReadFrame", true, func(r io.Reader) error {
			_, err := ReadFrame(r, 11)
			return err
		}},
		{"ReadRaw", true, func(r io.Reader) error {
			_, _, err := ReadRaw(r)
			return err
		}},
		{"PeekKind", false, func(r io.Reader) error {
			_, _, err := PeekKind(r)
			return err
		}},
	}
	for _, r := range readers {
		for _, src := range sources {
			testTruncation(t, src.name+" "+r.name, golden, r.whole, func(b []byte) error { return r.read(src.open(b)) })
		}
	}
}

// testTruncation runs one reader of TestTruncationWrapsErrCorrupt over
// every cut of golden; whole reports whether the reader consumes the
// full frame or only the header.
func testTruncation(t *testing.T, name string, golden []byte, whole bool, read func([]byte) error) {
	t.Helper()
	for cut := 0; cut < len(golden); cut++ {
		err := read(golden[:cut])
		if !whole && cut >= HeaderSize {
			// Header-only readers succeed once the header is intact.
			if err != nil {
				t.Fatalf("%s: cut at %d: unexpected error %v", name, cut, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: cut at %d decoded successfully", name, cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: cut at %d: %v does not wrap ErrCorrupt", name, cut, err)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Fatalf("%s: cut at %d: raw io error leaks through chain: %v", name, cut, err)
		}
	}
	// The intact frame must decode.
	if err := read(golden); err != nil {
		t.Fatalf("%s: golden frame: %v", name, err)
	}
}

// FuzzFrameRoundTrip feeds arbitrary bytes to ReadFrame: it must either
// decode a frame whose re-encoding reproduces the consumed bytes, or
// return an error — never panic.
func FuzzFrameRoundTrip(f *testing.F) {
	var e Enc
	e.U64s([]uint64{1, 2, 3})
	var buf bytes.Buffer
	WriteFrame(&buf, 5, e.Bytes())
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize+8))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, frame, err := PeekKind(bytes.NewReader(data))
		if err != nil {
			return
		}
		payload, err := ReadFrame(frame, kind)
		inPlace, errInPlace := ReadFrame(NewDec(data), kind)
		if (err == nil) != (errInPlace == nil) || !bytes.Equal(payload, inPlace) {
			t.Fatalf("streamed read (%v) and in-place read (%v) disagree", err, errInPlace)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := WriteFrame(&out, kind, payload); err != nil {
			t.Fatal(err)
		}
		consumed := HeaderSize + len(payload)
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode differs from consumed input")
		}
	})
}

// TestDecodeConsumesExactly checks the envelope contract: Decode
// returns the frame size when read consumes the payload exactly, and
// an ErrCorrupt error when it leaves bytes behind.
func TestDecodeConsumesExactly(t *testing.T) {
	var buf bytes.Buffer
	n, err := Encode(&buf, 9, func(e *Enc) error {
		e.U64(1)
		e.U64(2)
		return nil
	})
	if err != nil || n != HeaderSize+16 {
		t.Fatalf("Encode = %d, %v", n, err)
	}
	frame := buf.Bytes()
	got, err := Decode(bytes.NewReader(frame), 9, func(d *Dec) error {
		if a, b := d.U64(), d.U64(); a != 1 || b != 2 {
			t.Errorf("fields = %d, %d", a, b)
		}
		return nil
	})
	if err != nil || got != n {
		t.Fatalf("Decode = %d, %v; want %d", got, err, n)
	}
	if _, err := Decode(bytes.NewReader(frame), 9, func(d *Dec) error { d.U64(); return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("half-read payload: %v", err)
	}
}

func TestClaim(t *testing.T) {
	d := NewDec(make([]byte, 24))
	if !d.Claim(3, 8, "word") || d.Err() != nil {
		t.Fatalf("3 words in 24 bytes rejected: %v", d.Err())
	}
	if d.Claim(4, 8, "word") || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("4 words in 24 bytes: err = %v", d.Err())
	}
	if d.Claim(0, 1, "byte") {
		t.Fatal("Claim succeeded after an earlier failure")
	}
}
