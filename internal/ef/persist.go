package ef

import (
	"io"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
)

// WriteTo serializes the sequence: one codec frame with the scalar
// geometry, followed by the nested frames of the low-bits array (when
// present) and the high-bits vector. The rank/select directory is
// derived state and is rebuilt on load rather than stored. It
// implements io.WriterTo.
func (s *Sequence) WriteTo(w io.Writer) (int64, error) {
	return codec.Encode(w, codec.KindSequence, func(e *codec.Enc) error {
		e.U64(uint64(s.n))
		e.U64(s.universe)
		e.U8(uint8(s.lowBits))
		e.Bool(s.low != nil)
		if s.low != nil {
			if _, err := s.low.WriteTo(e); err != nil {
				return err
			}
		}
		_, err := s.high.WriteTo(e)
		return err
	})
}

// ReadFrom replaces the sequence's contents with a frame written by
// WriteTo, validating geometry and rebuilding the rank/select
// directory. It implements io.ReaderFrom; on error the receiver is
// left unchanged.
func (s *Sequence) ReadFrom(r io.Reader) (int64, error) {
	var ns Sequence
	size, err := codec.Decode(r, codec.KindSequence, ns.decode)
	if err == nil {
		*s = ns
	}
	return size, err
}

// decode reads the fields WriteTo wrote.
func (s *Sequence) decode(d *codec.Dec) error {
	n, universe, lowBits, hasLow := d.U64(), d.U64(), uint(d.U8()), d.Bool()
	if n > uint64(codec.MaxPayload)*8 || universe == 0 {
		return d.Corruptf("ef: bad geometry (n=%d universe=%d)", n, universe)
	}
	if hasLow != (lowBits > 0) {
		return d.Corruptf("ef: low array presence disagrees with lowBits=%d", lowBits)
	}
	if hasLow {
		s.low = new(bitvec.Packed)
		if _, err := s.low.ReadFrom(d); err != nil {
			return err
		}
		if s.low.Len() != int(n) || s.low.Width() != lowBits {
			return d.Corruptf("ef: low array %d×%d, want %d×%d", s.low.Len(), s.low.Width(), n, lowBits)
		}
	}
	s.high = new(bitvec.Vector)
	if _, err := s.high.ReadFrom(d); err != nil {
		return err
	}
	s.highRS = bitvec.NewRankSelect(s.high)
	if s.highRS.Ones() != int(n) {
		return d.Corruptf("ef: high vector has %d ones, want %d", s.highRS.Ones(), n)
	}
	s.n, s.universe, s.lowBits = int(n), universe, lowBits
	return nil
}
