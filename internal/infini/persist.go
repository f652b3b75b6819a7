package infini

import (
	"io"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	core.Register(core.TypeInfini, "infini", FromSpec)
}

// WriteTo serializes the filter as one frame: the construction Spec
// (initial q + seed), the growth counters, and every bucket's
// (fingerprint, length) entries. The current table width is implied —
// q = Spec.Q + Expansions — so growth state survives the trip.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.Spec(), func(e *codec.Enc) error {
		e.U32(uint32(f.exps))
		e.U64(uint64(f.n))
		e.U64(uint64(f.voids))
		e.F64(f.maxLoad)
		// Buckets are short (maxLoad < 1 entry/bucket on average), so counts
		// are a byte with an escape, and fingerprints fit 16 bits by
		// construction (FreshBits wide at most).
		for _, bucket := range f.buckets {
			if len(bucket) < 255 {
				e.U8(uint8(len(bucket)))
			} else {
				e.U8(255)
				e.U64(uint64(len(bucket)))
			}
			for _, ent := range bucket {
				e.U16(uint16(ent.fp))
				e.U8(ent.len)
			}
		}
		return nil
	})
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract), revalidating every
// entry (length within FreshBits, fingerprint within its length) and
// cross-checking the counters against the stored buckets.
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeInfini, f, shape, (*Filter).decode)
}

// decode reads the fields WriteTo wrote into a shaped filter.
func (f *Filter) decode(d *codec.Dec) error {
	exps, n, voids, maxLoad := int(d.U32()), int(d.U64()), int(d.U64()), d.F64()
	q := f.q + uint(exps)
	if q > 40 || n < 0 || voids < 0 || voids > n || !(maxLoad > 0 && maxLoad <= 1) {
		return d.Corruptf("infini: header (q0=%d exps=%d n=%d voids=%d maxLoad=%v) invalid",
			f.q, exps, n, voids, maxLoad)
	}
	// Every bucket stores at least its count byte.
	if !d.Claim(uint64(1)<<q, 1, "infini bucket") {
		return d.Err()
	}
	f.q, f.exps, f.maxLoad = q, exps, maxLoad
	f.buckets = make([][]entry, uint64(1)<<q)
	gotN, gotVoids := 0, 0
	for b := range f.buckets {
		cnt := uint64(d.U8())
		if cnt == 255 {
			if cnt = d.U64(); cnt < 255 {
				return d.Corruptf("infini: bucket %d count %d escaped", b, cnt)
			}
		}
		if cnt == 0 || !d.Claim(cnt, 3, "infini entry") {
			continue
		}
		bucket := make([]entry, cnt)
		for i := range bucket {
			fp, l := uint32(d.U16()), d.U8()
			if l > FreshBits || uint64(fp)>>l != 0 {
				return d.Corruptf("infini: bucket %d entry %d (fp=%#x len=%d) malformed", b, i, fp, l)
			}
			bucket[i] = entry{fp: fp, len: l}
			if l == 0 {
				gotVoids++
			}
		}
		f.buckets[b] = bucket
		gotN += int(cnt)
	}
	if gotN != n || gotVoids != voids {
		return d.Corruptf("infini: stored entries (n=%d voids=%d) disagree with header (n=%d voids=%d)",
			gotN, gotVoids, n, voids)
	}
	f.n, f.voids = n, voids
	return nil
}

var _ core.Persistent = (*Filter)(nil)
