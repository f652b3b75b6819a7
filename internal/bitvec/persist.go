package bitvec

import (
	"io"

	"beyondbloom/internal/codec"
)

// WriteTo serializes the vector as one codec frame (bit count followed
// by the length-prefixed backing words). It implements io.WriterTo.
func (v *Vector) WriteTo(w io.Writer) (int64, error) {
	return codec.Encode(w, codec.KindVector, func(e *codec.Enc) error {
		e.U64(uint64(v.n))
		e.U64s(v.words)
		return nil
	})
}

// ReadFrom replaces the vector's contents with a frame written by
// WriteTo, validating the checksum and the bit-count/word-count
// consistency. It implements io.ReaderFrom; on error the receiver is
// left unchanged.
func (v *Vector) ReadFrom(r io.Reader) (int64, error) {
	var nv Vector
	size, err := codec.Decode(r, codec.KindVector, func(d *codec.Dec) error {
		n, words := d.U64(), d.U64s()
		if n > uint64(len(words))*64 || (n+63)/64 != uint64(len(words)) {
			return d.Corruptf("bitvec: %d bits disagrees with %d words", n, len(words))
		}
		nv = Vector{words: words, n: int(n)}
		return nil
	})
	if err == nil {
		*v = nv
	}
	return size, err
}

// WriteTo serializes the packed array as one codec frame (element
// count, element width, then the payload words — the Window64 padding
// word is not stored). It implements io.WriterTo.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	return codec.Encode(w, codec.KindPacked, func(e *codec.Enc) error {
		e.U64(uint64(p.n))
		e.U8(uint8(p.w))
		e.U64s(p.words[:p.payloadWords])
		return nil
	})
}

// ReadFrom replaces the packed array's contents with a frame written by
// WriteTo, validating width and geometry; the Window64 padding word is
// reallocated zero. It implements io.ReaderFrom; on error the receiver
// is left unchanged.
func (p *Packed) ReadFrom(r io.Reader) (int64, error) {
	var np Packed
	size, err := codec.Decode(r, codec.KindPacked, func(d *codec.Dec) error {
		n, w, words := d.U64(), uint(d.U8()), d.U64s()
		if w == 0 || w > 64 {
			return d.Corruptf("bitvec: packed element width %d out of range", w)
		}
		// n*w must not overflow and must match the stored word count.
		if n > uint64(codec.MaxPayload)*8/uint64(w) {
			return d.Corruptf("bitvec: packed element count %d too large", n)
		}
		if (n*uint64(w)+63)/64 != uint64(len(words)) {
			return d.Corruptf("bitvec: %d %d-bit elements disagrees with %d words", n, w, len(words))
		}
		// Restore the Window64 padding word.
		np = Packed{words: append(words, 0), n: int(n), w: w, payloadWords: len(words)}
		return nil
	})
	if err == nil {
		*p = np
	}
	return size, err
}
