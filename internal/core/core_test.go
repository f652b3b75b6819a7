package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"beyondbloom/internal/codec"
)

func TestMapSet(t *testing.T) {
	s := NewMapSet()
	s.Insert(1)
	s.Insert(2)
	if !s.Contains(1) || !s.Contains(2) || s.Contains(3) {
		t.Fatal("MapSet membership wrong")
	}
	if s.Accesses() != 3 {
		t.Fatalf("Accesses = %d, want 3", s.Accesses())
	}
	s.Delete(1)
	if s.Contains(1) {
		t.Fatal("Delete failed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestBloomBitsPerKey(t *testing.T) {
	// 1.44 * 8 ≈ 11.54 for ε = 2^-8.
	got := BloomBitsPerKey(1.0 / 256)
	if got < 11.5 || got > 11.6 {
		t.Fatalf("BloomBitsPerKey(2^-8) = %f, want ≈11.54", got)
	}
}

func TestBloomOptimalK(t *testing.T) {
	cases := []struct {
		bits float64
		want int
	}{
		{10, 7},
		{1, 1},
		{0.1, 1}, // floor at 1
		{14.4, 10},
	}
	for _, c := range cases {
		if got := BloomOptimalK(c.bits); got != c.want {
			t.Errorf("BloomOptimalK(%f) = %d, want %d", c.bits, got, c.want)
		}
	}
}

type fakeFilter struct{ bits int }

func (f fakeFilter) Contains(uint64) bool { return false }
func (f fakeFilter) SizeBits() int        { return f.bits }

func TestBitsPerKey(t *testing.T) {
	if got := BitsPerKey(fakeFilter{1000}, 100); got != 10 {
		t.Fatalf("BitsPerKey = %f, want 10", got)
	}
	if got := BitsPerKey(fakeFilter{1000}, 0); got != 0 {
		t.Fatalf("BitsPerKey with n=0 = %f, want 0", got)
	}
}

// TestDecodeSpecRefusesKeyCountPastInt: a Spec's key count is a uint64
// on the wire and an int in memory. A count past the largest int is
// corrupt, not wrapped: 2^63 would read negative on any build, 2^40 as
// 0 on a 32-bit one.
func TestDecodeSpecRefusesKeyCountPastInt(t *testing.T) {
	for _, n := range []uint64{1 << 20, 1 << 40, 1 << 63} {
		var e codec.Enc
		Spec{Type: TypeBloom, BitsPerKey: 10}.encode(&e)
		binary.LittleEndian.PutUint64(e.Bytes()[2:], n) // after the U16 type
		d := codec.NewDec(e.Bytes())
		s := decodeSpec(d)
		switch err := d.Err(); {
		case n > math.MaxInt && !errors.Is(err, codec.ErrCorrupt):
			t.Errorf("N = %d: decoded %d with error %v, want ErrCorrupt", n, s.N, err)
		case n <= math.MaxInt && (err != nil || uint64(s.N) != n):
			t.Errorf("N = %d: decoded %d with error %v", n, s.N, err)
		}
	}
}
