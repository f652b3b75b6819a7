package bloom

import (
	"io"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	core.Register(core.TypeBloom, "bloom", FromSpec)
	core.Register(core.TypeBlockedBloom, "bloom.Blocked", BlockedFromSpec)
	core.Register(core.TypeBlockedChoices, "bloom.BlockedChoices", BlockedChoicesFromSpec)
	core.Register(core.TypeScalableBloom, "bloom.Scalable", ScalableFromSpec)
}

// WriteTo serializes the filter as one frame: the construction Spec,
// the derived geometry, and the nested bit-vector frame.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, func(e *codec.Enc) error {
		e.U64(f.m)
		e.U32(uint32(f.k))
		e.U64(uint64(f.n))
		_, err := f.bits.WriteTo(e)
		return err
	})
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract).
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeBloom, f, shape, (*Filter).decode)
}

// decode reads the fields WriteTo wrote into a shaped filter.
func (f *Filter) decode(d *codec.Dec) error {
	m, k, n := d.U64(), uint(d.U32()), d.U64()
	f.bits = new(bitvec.Vector)
	if _, err := f.bits.ReadFrom(d); err != nil {
		return err
	}
	if m != f.m || k != f.k || uint64(f.bits.Len()) != f.m {
		return d.Corruptf("bloom: geometry m=%d k=%d bits=%d disagrees with spec (m=%d k=%d)",
			m, k, f.bits.Len(), f.m, f.k)
	}
	f.n = int(n)
	return nil
}

// WriteTo serializes the filter as one frame: the construction Spec,
// the derived geometry, and the raw block words.
func (f *Blocked) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, f.encode)
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract).
func (f *Blocked) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeBlockedBloom, f, blockedShape, (*Blocked).decode)
}

// WriteTo serializes the filter as one frame, laid out as Blocked's.
func (f *BlockedChoices) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, f.encode)
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract).
func (f *BlockedChoices) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeBlockedChoices, f, choicesShape, (*BlockedChoices).decode)
}

// encode appends the fields both blocked filters store after the Spec.
func (b *blocks) encode(e *codec.Enc) error {
	e.U64(b.numBlocks)
	e.U32(uint32(b.k))
	e.U64(uint64(b.n))
	e.U64s(b.words)
	return nil
}

// decode reads the fields encode wrote into a shaped filter. The word
// count is compared by division, so no overflowing product can match.
func (b *blocks) decode(d *codec.Dec) error {
	numBlocks, k, n, words := d.U64(), uint(d.U32()), d.U64(), d.U64s()
	if numBlocks != b.numBlocks || k != b.k || len(words)%blockWords != 0 || uint64(len(words))/blockWords != numBlocks {
		return d.Corruptf("bloom: blocked geometry blocks=%d k=%d words=%d disagrees with spec (blocks=%d k=%d)",
			numBlocks, k, len(words), b.numBlocks, b.k)
	}
	b.words = words
	b.n = int(n)
	return nil
}

// WriteTo serializes the chain as one frame: the construction Spec
// (initial capacity + ε budget), the insert count, and the stages as
// nested bloom frames. Growth state — how many stages are open, each
// stage's geometry and fill — is exactly the chain itself, so a
// restored filter resumes growing where the original stopped.
func (s *Scalable) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, s.Spec(), func(e *codec.Enc) error {
		e.U64(uint64(s.n))
		e.U32(uint32(len(s.stages)))
		for _, st := range s.stages {
			if _, err := st.WriteTo(e); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReadFrom restores a chain written by WriteTo into the receiver. The
// stage capacities and tightening schedule are recomputed from the Spec
// and cross-checked against the stored stages, so a corrupt or
// inconsistent chain is rejected rather than silently served.
func (s *Scalable) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeScalableBloom, s, ScalableFromSpec, (*Scalable).decode)
}

// decode reads the fields WriteTo wrote into an empty chain.
func (s *Scalable) decode(d *codec.Dec) error {
	n, numStages := d.U64(), d.U32()
	if numStages > 62 {
		return d.Corruptf("bloom: scalable stage count %d out of range", numStages)
	}
	sum := 0
	for i := uint32(0); i < numStages; i++ {
		st := new(Filter)
		if _, err := st.ReadFrom(d); err != nil {
			return err
		}
		if cap := s.nextCap(); i+1 < numStages && st.Len() < cap {
			return d.Corruptf("bloom: scalable stage %d holds %d keys below its capacity %d but is not the newest", i, st.Len(), cap)
		}
		s.appendStage(st)
		sum += st.Len()
	}
	if sum != int(n) {
		return d.Corruptf("bloom: scalable stage lengths sum to %d, header says %d", sum, n)
	}
	s.n = int(n)
	return nil
}

var (
	_ core.Persistent = (*Filter)(nil)
	_ core.Persistent = (*Blocked)(nil)
	_ core.Persistent = (*BlockedChoices)(nil)
	_ core.Persistent = (*Scalable)(nil)
)
