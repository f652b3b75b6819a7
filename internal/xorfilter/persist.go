package xorfilter

import (
	"io"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	// XOR filters are static — construction peels a key set, so there is
	// no Spec-only builder. Loading a saved filter is the only way to
	// reconstruct one without the keys.
	core.Register[Filter](core.TypeXor, "xorfilter", nil)
}

// WriteTo serializes the filter as one frame: the construction Spec
// (including the peeling seed that succeeded), the segment length, and
// the nested slot-table frame.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, func(e *codec.Enc) error {
		e.U64(f.segLen)
		_, err := f.slots.WriteTo(e)
		return err
	})
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract): the segment length
// must match the sizing formula for the stored key count, and the slot
// table must be exactly three segments of fpBits-wide slots.
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeXor, f, shape, (*Filter).decode)
}

// decode reads the fields WriteTo wrote into a shaped filter.
func (f *Filter) decode(d *codec.Dec) error {
	segLen := d.U64()
	f.slots = new(bitvec.Packed)
	if _, err := f.slots.ReadFrom(d); err != nil {
		return err
	}
	if segLen != f.segLen {
		return d.Corruptf("xorfilter: segment length %d disagrees with %d keys (want %d)", segLen, f.spec.N, f.segLen)
	}
	if uint64(f.slots.Len()) != 3*segLen || f.slots.Width() != f.fpBits {
		return d.Corruptf("xorfilter: table %d slots × %d bits, want %d × %d",
			f.slots.Len(), f.slots.Width(), 3*segLen, f.fpBits)
	}
	return nil
}

var _ core.Persistent = (*Filter)(nil)
