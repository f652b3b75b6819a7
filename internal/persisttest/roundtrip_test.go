package persisttest

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

// TestRoundTrip is the core persistence property for every registered
// filter type: Save → Load must reproduce bit-identical state (the
// reloaded filter re-encodes to the same bytes) and identical query
// answers, scalar and batched, for present and absent keys alike. It
// holds for a filter streamed from a reader and for one decoded in
// place from a codec.Dec; either way the loaded filter owns its state,
// so the checks run after the source bytes are zeroed.
func TestRoundTrip(t *testing.T) {
	fixtures, err := Fixtures(2000)
	if err != nil {
		t.Fatal(err)
	}
	absent := Keys(4096, 99)
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := core.Save(&buf, fx.Filter); err != nil {
				t.Fatalf("Save: %v", err)
			}
			encoded := buf.Bytes()
			for _, inPlace := range []bool{false, true} {
				src := bytes.Clone(encoded)
				var r io.Reader = bytes.NewReader(src)
				if inPlace {
					r = codec.NewDec(src)
				}
				got, err := core.Load(r)
				if err != nil {
					t.Fatalf("Load (in place %v): %v", inPlace, err)
				}
				clear(src)
				checkRoundTrip(t, fx, encoded, got, absent)
			}
		})
	}
}

// checkRoundTrip is TestRoundTrip's check of one loaded filter.
func checkRoundTrip(t *testing.T, fx Fixture, encoded []byte, got core.Persistent, absent []uint64) {
	t.Helper()
	if reflect.TypeOf(got) != reflect.TypeOf(fx.Filter) {
		t.Fatalf("loaded a %T, want %T", got, fx.Filter)
	}

	// Bit-identical state: the reloaded filter must serialize to
	// exactly the bytes it was loaded from.
	var buf2 bytes.Buffer
	if _, err := core.Save(&buf2, got); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(encoded, buf2.Bytes()) {
		t.Fatalf("re-encoding differs: %d vs %d bytes", len(encoded), buf2.Len())
	}

	if got.SizeBits() != fx.Filter.SizeBits() {
		t.Errorf("SizeBits: got %d, want %d", got.SizeBits(), fx.Filter.SizeBits())
	}
	for _, k := range fx.Keys {
		if !got.Contains(k) {
			t.Fatalf("reloaded filter lost key %#x", k)
		}
	}
	wantAbsent := make([]bool, len(absent))
	gotAbsent := make([]bool, len(absent))
	for i, k := range absent {
		wantAbsent[i] = fx.Filter.Contains(k)
		gotAbsent[i] = got.Contains(k)
	}
	for i := range absent {
		if wantAbsent[i] != gotAbsent[i] {
			t.Fatalf("Contains(%#x): got %v, want %v", absent[i], gotAbsent[i], wantAbsent[i])
		}
	}

	// Batched answers must agree with the original's batched path.
	wantBatch := make([]bool, len(absent))
	gotBatch := make([]bool, len(absent))
	core.ContainsBatch(fx.Filter, absent, wantBatch)
	core.ContainsBatch(got, absent, gotBatch)
	for i := range absent {
		if wantBatch[i] != gotBatch[i] {
			t.Fatalf("ContainsBatch(%#x): got %v, want %v", absent[i], gotBatch[i], wantBatch[i])
		}
	}
}

// TestLoadStreamsBackToBack verifies Load leaves the reader positioned
// exactly after one filter's encoding, so several filters can share a
// stream — streamed or decoded in place.
func TestLoadStreamsBackToBack(t *testing.T) {
	fixtures, err := Fixtures(300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, fx := range fixtures {
		if _, err := core.Save(&buf, fx.Filter); err != nil {
			t.Fatalf("Save(%s): %v", fx.Name, err)
		}
	}
	stream, inPlace := bytes.NewReader(buf.Bytes()), codec.NewDec(buf.Bytes())
	for _, src := range []struct {
		r    io.Reader
		left func() int
	}{{stream, stream.Len}, {inPlace, inPlace.Remaining}} {
		for _, fx := range fixtures {
			got, err := core.Load(src.r)
			if err != nil {
				t.Fatalf("Load(%s) from %T: %v", fx.Name, src.r, err)
			}
			if reflect.TypeOf(got) != reflect.TypeOf(fx.Filter) {
				t.Fatalf("Load(%s) from %T: loaded a %T, want %T", fx.Name, src.r, got, fx.Filter)
			}
		}
		if n := src.left(); n != 0 {
			t.Fatalf("%T: %d bytes left after loading every filter", src.r, n)
		}
	}
}

// TestCorruptionDetected flips bytes throughout each filter's encoding
// and requires every mutation to surface as an ErrCorrupt-wrapped
// error (or, for undetectable header-adjacent flips, at least not a
// silently different filter).
func TestCorruptionDetected(t *testing.T) {
	fixtures, err := Fixtures(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := core.Save(&buf, fx.Filter); err != nil {
				t.Fatal(err)
			}
			encoded := buf.Bytes()
			// Stride through the encoding; exhaustive per-byte flips are
			// the codec package's job, here we check every region of every
			// filter format reports corruption.
			for off := 0; off < len(encoded); off += 7 {
				mutated := append([]byte(nil), encoded...)
				mutated[off] ^= 0x40
				_, err := core.Load(bytes.NewReader(mutated))
				if err == nil {
					t.Fatalf("flip at offset %d/%d not detected", off, len(encoded))
				}
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("flip at offset %d: error %v does not wrap ErrCorrupt", off, err)
				}
			}
		})
	}
}

// TestRegistryCoverage requires the fixtures to cover the registry
// exactly: one fixture per registered type, named after it and saved
// under its TypeID, each with a golden file. A new registration cannot
// land without a fixture and a golden.
func TestRegistryCoverage(t *testing.T) {
	fixtures, err := Fixtures(8)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fx := range fixtures {
		names = append(names, fx.Name)
		var buf bytes.Buffer
		if _, err := core.Save(&buf, fx.Filter); err != nil {
			t.Fatal(err)
		}
		kind, _, err := codec.PeekKind(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.TypeName(kind); got != fx.Name {
			t.Errorf("fixture %s saves as TypeID %d, registered as %q", fx.Name, kind, got)
		}
		if _, err := os.Stat(goldenPath(fx.Name)); err != nil {
			t.Errorf("fixture %s has no golden file: %v", fx.Name, err)
		}
	}
	if want := registeredNames(); !equalSorted(names, want) {
		t.Errorf("fixtures %v, registered types %v", names, want)
	}
}
