package cuckoo

import (
	"io"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	core.Register(core.TypeCuckoo, "cuckoo", FromSpec)
}

// WriteTo serializes the filter as one frame: the construction Spec,
// the derived geometry, the eviction-walk state (rng + victim cache),
// and the nested fingerprint-table frame.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, func(e *codec.Enc) error {
		e.U64(f.numBuckets)
		e.U64(uint64(f.n))
		e.U64(f.rngState)
		e.U64(f.victim.fp)
		e.U64(f.victim.bucket)
		e.Bool(f.victim.valid)
		_, err := f.slots.WriteTo(e)
		return err
	})
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract).
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeCuckoo, f, shape, (*Filter).decode)
}

// decode reads the fields WriteTo wrote into a shaped filter.
func (f *Filter) decode(d *codec.Dec) error {
	numBuckets, n := d.U64(), d.U64()
	f.rngState = d.U64()
	f.victim = stashFP{fp: d.U64(), bucket: d.U64(), valid: d.Bool()}
	f.slots = new(bitvec.Packed)
	if _, err := f.slots.ReadFrom(d); err != nil {
		return err
	}
	if numBuckets != f.numBuckets {
		return d.Corruptf("cuckoo: bucket count %d disagrees with spec (want %d)", numBuckets, f.numBuckets)
	}
	if uint64(f.slots.Len()) != numBuckets*BucketSize || f.slots.Width() != f.fpBits {
		return d.Corruptf("cuckoo: table %d slots × %d bits disagrees with geometry (%d buckets × %d, fp %d bits)",
			f.slots.Len(), f.slots.Width(), numBuckets, BucketSize, f.fpBits)
	}
	fpMask := uint64(1)<<f.fpBits - 1
	if v := f.victim; v.valid && (v.bucket >= numBuckets || v.fp == 0 || v.fp&^fpMask != 0) {
		return d.Corruptf("cuckoo: victim cache fp=%d bucket=%d out of range", v.fp, v.bucket)
	}
	f.n = int(n)
	return nil
}

var _ core.Persistent = (*Filter)(nil)
