package persisttest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

// hugeSpecFrame is a small frame with a valid checksum whose Spec claims
// a filter far larger than the payload that follows it.
type hugeSpecFrame struct {
	name  string // the registered type name
	frame []byte
}

// huge is n, or the largest int where n does not fit (a 32-bit build):
// a Spec claims at most that many keys there.
func huge(n uint64) int { return int(min(n, math.MaxInt)) }

// hugeSpecFrames returns one hugeSpecFrame per registered filter type.
// Decoding any of them must not size an array from the Spec.
func hugeSpecFrames(tb testing.TB) []hugeSpecFrame {
	emptyVector := func(e *codec.Enc) error { _, err := bitvec.New(0).WriteTo(e); return err }
	emptyPacked := func(e *codec.Enc) error { _, err := bitvec.NewPacked(0, 8).WriteTo(e); return err }
	blocked := func(e *codec.Enc) error { e.U64(0); e.U32(7); e.U64(0); e.U64s(nil); return nil }
	rows := []struct {
		name string
		spec core.Spec
		fill func(*codec.Enc) error
	}{
		{"bloom", core.Spec{Type: core.TypeBloom, N: huge(1 << 58), BitsPerKey: 10}, func(e *codec.Enc) error {
			e.U64(0)
			e.U32(7)
			e.U64(0)
			return emptyVector(e)
		}},
		{"bloom.Blocked", core.Spec{Type: core.TypeBlockedBloom, N: huge(1 << 58), BitsPerKey: 10}, blocked},
		{"bloom.BlockedChoices", core.Spec{Type: core.TypeBlockedChoices, N: huge(1 << 58), BitsPerKey: 10}, blocked},
		// A chain of 62 stages with none of them in the payload.
		{"bloom.Scalable", core.Spec{Type: core.TypeScalableBloom, N: huge(1 << 58), BitsPerKey: 0.01}, func(e *codec.Enc) error {
			e.U64(0)
			e.U32(62)
			return nil
		}},
		{"cuckoo", core.Spec{Type: core.TypeCuckoo, N: huge(1 << 40), FPBits: 8, Seed: 1}, func(e *codec.Enc) error {
			for range 5 {
				e.U64(0) // buckets, n, rng, victim fp, victim bucket
			}
			e.Bool(false)
			return emptyPacked(e)
		}},
		// Saturated, so no table follows, but still at r=8 after no
		// expansions: a filter saturates only at r=1.
		{"quotient", core.Spec{Type: core.TypeQuotient, Q: 34, R: 8, Seed: 1}, func(e *codec.Enc) error {
			e.U8(8)
			e.U64(0)
			e.Bool(false)
			e.Bool(true)
			e.U32(0)
			return nil
		}},
		{"xorfilter", core.Spec{Type: core.TypeXor, N: huge(1 << 40), FPBits: 8, Seed: 1}, func(e *codec.Enc) error {
			e.U64(0)
			return emptyPacked(e)
		}},
		// 4096 shards, none of which follow the header.
		{"concurrent.Sharded", core.Spec{Type: core.TypeSharded, LogShards: 12, Seed: 1}, nil},
		// A table of 2^40 slots claimed, empty vectors present.
		{"infini", core.Spec{Type: core.TypeInfini, Q: 40, Seed: 1}, func(e *codec.Enc) error {
			e.U32(0)
			e.U64(0)
			e.U64(0)
			_, err := codec.Encode(e, codec.KindQTable, func(e *codec.Enc) error {
				e.U8(40)
				e.U8(17)
				e.U64(0)
				for range 3 {
					if err := emptyVector(e); err != nil {
						return err
					}
				}
				return emptyPacked(e)
			})
			return err
		}},
		// 2^30 extents claimed, none present.
		{"taffy", core.Spec{Type: core.TypeTaffy, N: huge(1 << 41), BitsPerKey: 0.01, Seed: 1}, func(e *codec.Enc) error {
			e.U8(40)
			e.U32(0)
			e.U64(0)
			e.U64(0)
			e.Bool(false)
			e.U64(1 << 30)
			return nil
		}},
	}
	out := make([]hugeSpecFrame, len(rows))
	for i, row := range rows {
		var buf bytes.Buffer
		if _, err := core.EncodeFrame(&buf, row.spec, row.fill); err != nil {
			tb.Fatalf("%s: %v", row.name, err)
		}
		out[i] = hugeSpecFrame{row.name, buf.Bytes()}
	}
	return out
}

// TestHugeSpecFramesRejected loads, for every registered type, a small
// valid-checksum frame whose Spec claims a huge filter, streamed and in
// place. Each must fail with ErrCorrupt — no panic, no out-of-memory
// death — having allocated little: decoders size arrays from the
// payload, never from the Spec. A frame header claiming a payload far
// longer than the bytes present is held to the same bound.
func TestHugeSpecFramesRejected(t *testing.T) {
	frames := hugeSpecFrames(t)
	var names []string
	for _, fr := range frames {
		names = append(names, fr.name)
		t.Run(fr.name, func(t *testing.T) { loadRejectedSmall(t, fr.frame) })
	}
	if want := registeredNames(); !equalSorted(names, want) {
		t.Fatalf("rows %v, registered types %v: every registered type needs a row", names, want)
	}
	t.Run("length past the data", func(t *testing.T) {
		frame := bytes.Clone(frames[0].frame)
		binary.LittleEndian.PutUint64(frame[8:], codec.MaxPayload)
		loadRejectedSmall(t, frame)
	})
}

// loadRejectedSmall requires core.Load of frame, streamed and in place,
// to fail with ErrCorrupt within 16 MiB of allocation.
func loadRejectedSmall(t *testing.T, frame []byte) {
	const maxAlloc = 16 << 20
	for _, inPlace := range []bool{false, true} {
		var r io.Reader = bytes.NewReader(frame)
		if inPlace {
			r = codec.NewDec(frame)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := core.Load(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%d-byte frame, in place %v: Load returned %v, want an error wrapping ErrCorrupt", len(frame), inPlace, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxAlloc {
			t.Fatalf("%d-byte frame, in place %v: Load allocated %d bytes, bound %d", len(frame), inPlace, alloc, maxAlloc)
		}
	}
}

// FuzzSealedPayload fuzzes the bytes behind the checksum: each input is
// a frame kind and a payload, sealed into a frame with a valid checksum
// before core.Load, so mutations reach the decoders instead of stopping
// at the CRC check. The contract is FuzzCodecRoundTrip's.
func FuzzSealedPayload(f *testing.F) {
	fixtures, err := Fixtures(64)
	if err != nil {
		f.Fatal(err)
	}
	for _, fx := range fixtures {
		var buf bytes.Buffer
		if _, err := core.Save(&buf, fx.Filter); err != nil {
			f.Fatal(err)
		}
		kind, raw, err := codec.ReadRaw(&buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, raw[codec.HeaderSize:])
	}
	for _, fr := range hugeSpecFrames(f) {
		kind, raw, err := codec.ReadRaw(bytes.NewReader(fr.frame))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, raw[codec.HeaderSize:])
	}
	f.Fuzz(func(t *testing.T, kind uint16, payload []byte) {
		var buf bytes.Buffer
		if _, err := codec.WriteFrame(&buf, kind, payload); err != nil {
			t.Fatal(err)
		}
		checkLoad(t, buf.Bytes())
	})
}

// registeredNames returns the names of every registered type, sorted.
func registeredNames() []string {
	var names []string
	for _, id := range core.RegisteredTypes() {
		names = append(names, core.TypeName(id))
	}
	slices.Sort(names)
	return names
}

// equalSorted reports whether a, once sorted, equals the sorted b.
func equalSorted(a, b []string) bool {
	a = slices.Clone(a)
	slices.Sort(a)
	return slices.Equal(a, b)
}
