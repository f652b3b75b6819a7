package persisttest

import (
	"bytes"
	"errors"
	"testing"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the registry loader. The
// contract under fuzzing: Load either returns an error wrapping
// codec.ErrCorrupt (or reports a stream-level failure that still wraps
// it) or succeeds — and on success the loaded filter must re-encode to
// exactly the bytes consumed (canonical encoding). It must never
// panic, hang on a huge corrupt length, or silently accept a mutation.
func FuzzCodecRoundTrip(f *testing.F) {
	fixtures, err := Fixtures(64)
	if err != nil {
		f.Fatal(err)
	}
	for _, fx := range fixtures {
		var buf bytes.Buffer
		if _, err := core.Save(&buf, fx.Filter); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A mutated variant per fixture seeds the interesting edge of the
		// space: almost-valid frames.
		mut := append([]byte(nil), buf.Bytes()...)
		mut[len(mut)/2] ^= 0x01
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("BBF1 but not really a frame"))

	f.Fuzz(checkLoad)
}

// checkLoad is the fuzz contract: Load either returns an error wrapping
// codec.ErrCorrupt or succeeds, and on success the loaded filter
// re-encodes to exactly the bytes it consumed. Streamed and in-place
// loads of the same bytes must agree on which it is and on the bytes
// consumed.
func checkLoad(t *testing.T, data []byte) {
	r, d := bytes.NewReader(data), codec.NewDec(data)
	streamed, err := core.Load(r)
	inPlace, errInPlace := core.Load(d)
	if (err == nil) != (errInPlace == nil) || (err == nil && r.Len() != d.Remaining()) {
		t.Fatalf("streamed load (%v, %d bytes left) and in-place load (%v, %d left) disagree",
			err, r.Len(), errInPlace, d.Remaining())
	}
	if err != nil {
		for _, err := range []error{err, errInPlace} {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("Load error %v does not wrap codec.ErrCorrupt", err)
			}
		}
		return
	}
	consumed := len(data) - r.Len()
	for _, loaded := range []core.Persistent{streamed, inPlace} {
		var out bytes.Buffer
		if _, err := core.Save(&out, loaded); err != nil {
			t.Fatalf("re-encoding a successfully loaded filter failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("non-canonical load: consumed %d bytes but re-encoded %d different ones",
				consumed, out.Len())
		}
	}
}
