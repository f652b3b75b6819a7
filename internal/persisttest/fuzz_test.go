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
// re-encodes to exactly the bytes it consumed.
func checkLoad(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	loaded, err := core.Load(r)
	if err != nil {
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("Load error %v does not wrap codec.ErrCorrupt", err)
		}
		return
	}
	consumed := len(data) - r.Len()
	var out bytes.Buffer
	if _, err := core.Save(&out, loaded); err != nil {
		t.Fatalf("re-encoding a successfully loaded filter failed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data[:consumed]) {
		t.Fatalf("non-canonical load: consumed %d bytes but re-encoded %d different ones",
			consumed, out.Len())
	}
}
