package taffy

import (
	"io"
	"math/bits"
	"sort"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	core.Register(core.TypeTaffy, "taffy", FromSpec)
}

// WriteTo serializes the filter — including mid-round migration state,
// so a snapshot taken during a doubling resumes exactly where it left
// off — as one TypeTaffy frame.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, func(e *codec.Enc) error {
		e.U8(uint8(f.q))
		e.U32(uint32(f.exps))
		e.U64(uint64(f.n))
		e.U64(uint64(f.voids))
		e.Bool(f.bitmap != nil)
		if f.bitmap != nil {
			e.U64(f.migrated)
			e.U64(f.cursor)
			e.U64s(f.bitmap)
		}
		// Extents are sparse: only allocated ones carry a payload. The
		// count written is the logical extent count for the current bucket
		// range.
		nExt := (f.bucketRange() + extentBuckets - 1) >> extentLogBuckets
		e.U64(nExt)
		for k := uint64(0); k < nExt; k++ {
			present := k < uint64(len(f.extents)) && f.extents[k] != nil
			e.Bool(present)
			if present {
				e.U64s(f.extents[k])
			}
		}
		// Overflow entries, sorted by bucket for a canonical encoding.
		e.U64(uint64(f.novf))
		keys := make([]uint64, 0, len(f.ovf))
		for b := range f.ovf {
			keys = append(keys, b)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, b := range keys {
			e.U64(b)
			e.U64(uint64(len(f.ovf[b])))
			for _, c := range f.ovf[b] {
				e.U16(c)
			}
		}
		return nil
	})
}

// ReadFrom restores a filter saved with WriteTo (see core.DecodeFrame
// for the validation contract). It re-derives the length census and
// cross-checks every counter against the stored table, so corrupt
// input is reported rather than silently served.
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeTaffy, f, FromSpec, (*Filter).decode)
}

// decode reads the fields WriteTo wrote into an empty filter built from
// the decoded Spec.
func (f *Filter) decode(d *codec.Dec) error {
	q, exps, n, voids := uint(d.U8()), int(d.U32()), int(d.U64()), int(d.U64())
	if q != f.q+uint(exps) || q > maxQ {
		return d.Corruptf("taffy: address width %d inconsistent with q0=%d exps=%d", q, f.q, exps)
	}
	f.q, f.exps = q, exps
	if d.Bool() {
		f.migrated, f.cursor, f.bitmap = d.U64(), d.U64(), d.U64s()
		if len(f.bitmap) != int((uint64(1)<<q+63)/64) {
			return d.Corruptf("taffy: bitmap length %d for q=%d", len(f.bitmap), q)
		}
		pop := 0
		for _, w := range f.bitmap {
			pop += bits.OnesCount64(w)
		}
		if uint64(pop) != f.migrated || f.migrated >= uint64(1)<<q || f.cursor > uint64(1)<<q {
			return d.Corruptf("taffy: migration state (migrated=%d pop=%d cursor=%d) invalid", f.migrated, pop, f.cursor)
		}
	}
	nb := f.bucketRange()
	nExt := d.U64()
	if wantExt := (nb + extentBuckets - 1) >> extentLogBuckets; nExt != wantExt {
		return d.Corruptf("taffy: extent count %d, geometry implies %d", nExt, wantExt)
	}
	// Every extent stores at least its presence byte.
	if !d.Claim(nExt, 1, "taffy extent") {
		return d.Err()
	}
	f.extents = make([][]uint64, nExt)
	for k := range f.extents {
		if d.Bool() {
			if f.extents[k] = d.U64s(); len(f.extents[k]) != extentBuckets*bucketWords {
				return d.Corruptf("taffy: extent %d length %d", k, len(f.extents[k]))
			}
		}
	}

	// Recompute the length census from the stored codes; counters must
	// agree with the header.
	count := func(c uint16) {
		f.countCode(c, +1)
		f.n++
		if c == 1 {
			f.voids++
		}
	}
	for _, ext := range f.extents {
		for _, word := range ext {
			for lane := uint(0); lane < lanesPerWord; lane++ {
				if c := uint16(word >> (lane * laneBits)); c != 0 {
					count(c)
				}
			}
		}
	}
	// Overflow buckets follow in ascending order, the order WriteTo
	// writes them in.
	novf := int(d.U64())
	if novf < 0 || novf > n {
		return d.Corruptf("taffy: overflow count %d out of range (n=%d)", novf, n)
	}
	for next := uint64(0); f.novf < novf; {
		b, cnt := d.U64(), d.U64()
		if b < next || b >= nb {
			return d.Corruptf("taffy: overflow bucket %d out of order or beyond the table (%d buckets)", b, nb)
		}
		if cnt == 0 || cnt > uint64(novf-f.novf) || !d.Claim(cnt, 2, "taffy overflow code") {
			return d.Corruptf("taffy: overflow bucket %d entry count %d invalid", b, cnt)
		}
		codes := make([]uint16, cnt)
		for i := range codes {
			if codes[i] = d.U16(); codes[i] == 0 {
				return d.Corruptf("taffy: zero overflow code")
			}
			count(codes[i])
		}
		if f.ovf == nil {
			f.ovf = make(map[uint64][]uint16)
		}
		f.ovf[b] = codes
		f.novf += int(cnt)
		next = b + 1
	}
	if f.n != n || f.voids != voids {
		return d.Corruptf("taffy: stored codes (n=%d voids=%d) disagree with header (n=%d voids=%d)", f.n, f.voids, n, voids)
	}
	return nil
}

var _ core.Persistent = (*Filter)(nil)
