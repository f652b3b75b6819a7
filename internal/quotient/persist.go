package quotient

import (
	"fmt"
	"io"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	core.Register(core.TypeQuotient, "quotient", FromSpec)
	core.Register(core.TypeInfini, "infini", InfiniFromSpec)
}

// writeTo serializes the shared physical table as one KindQTable frame:
// geometry, slot usage, the three metadata bit vectors, and the packed
// payload. Every table-based variant (set filter, maplet, InfiniFilter)
// reuses this one codec.
func (t *table) writeTo(w io.Writer) (int64, error) {
	return codec.Encode(w, codec.KindQTable, func(e *codec.Enc) error {
		e.U8(uint8(t.q))
		e.U8(uint8(t.width))
		e.U64(uint64(t.used))
		for _, v := range [...]*bitvec.Vector{t.occupied, t.continuation, t.shifted} {
			if _, err := v.WriteTo(e); err != nil {
				return err
			}
		}
		_, err := t.payload.WriteTo(e)
		return err
	})
}

// readTable decodes one KindQTable frame and validates it fully: the
// geometry, the substrate lengths, and — via the package's invariant
// checker, whose walk reports bad metadata as an error — that the
// metadata bits describe a consistent set of runs.
func readTable(r io.Reader) (*table, error) {
	t := &table{
		occupied:     new(bitvec.Vector),
		continuation: new(bitvec.Vector),
		shifted:      new(bitvec.Vector),
		payload:      new(bitvec.Packed),
	}
	_, err := codec.Decode(r, codec.KindQTable, func(d *codec.Dec) error {
		t.q, t.width, t.used = uint(d.U8()), uint(d.U8()), int(d.U64())
		for _, v := range [...]*bitvec.Vector{t.occupied, t.continuation, t.shifted} {
			if _, err := v.ReadFrom(d); err != nil {
				return err
			}
		}
		if _, err := t.payload.ReadFrom(d); err != nil {
			return err
		}
		if t.q < 1 || t.q > 40 || t.width < 1 || t.width > 58 {
			return d.Corruptf("quotient: table geometry q=%d width=%d out of range", t.q, t.width)
		}
		t.slots = uint64(1) << t.q
		t.mask = t.slots - 1
		if t.used < 0 || uint64(t.used) >= t.slots {
			return d.Corruptf("quotient: %d used slots in a %d-slot table", t.used, t.slots)
		}
		for _, v := range [...]*bitvec.Vector{t.occupied, t.continuation, t.shifted} {
			if uint64(v.Len()) != t.slots {
				return d.Corruptf("quotient: metadata vector length %d, want %d", v.Len(), t.slots)
			}
		}
		if uint64(t.payload.Len()) != t.slots || t.payload.Width() != t.width {
			return d.Corruptf("quotient: payload %d slots × %d bits, want %d × %d",
				t.payload.Len(), t.payload.Width(), t.slots, t.width)
		}
		if err := t.checkInvariants(); err != nil {
			return fmt.Errorf("%w: quotient: inconsistent table: %v", codec.ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTo serializes the filter as one frame: the construction Spec,
// the current (possibly expanded) geometry and expansion state, and —
// unless saturated — the nested table frame.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, func(e *codec.Enc) error {
		e.U8(uint8(f.r))
		e.U64(uint64(f.n))
		e.Bool(f.autoExpand)
		e.Bool(f.saturated)
		e.U32(uint32(f.expansions))
		if f.saturated {
			return nil
		}
		_, err := f.t.writeTo(e)
		return err
	})
}

// ReadFrom restores a filter written by WriteTo into the receiver (see
// core.DecodeFrame for the validation contract), checking the expansion
// arithmetic and the full table invariants.
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeQuotient, f, shape, (*Filter).decode)
}

// decode reads the fields WriteTo wrote into a shaped filter.
func (f *Filter) decode(d *codec.Dec) error {
	curR, n := uint(d.U8()), d.U64()
	f.autoExpand, f.saturated = d.Bool(), d.Bool()
	expansions := uint(d.U32())
	// Each doubling moves one fingerprint bit from remainder to quotient,
	// and the filter saturates instead of expanding past one remainder
	// bit or 2^40 slots.
	q := uint(f.spec.Q) + expansions
	if expansions >= uint(f.spec.R) || q > 40 || curR != uint(f.spec.R)-expansions || (f.saturated && curR != 1) {
		return d.Corruptf("quotient: r=%d after %d expansions disagrees with spec q=%d r=%d (saturated %v)",
			curR, expansions, f.spec.Q, f.spec.R, f.saturated)
	}
	if !f.saturated {
		t, err := readTable(d)
		if err != nil {
			return err
		}
		if t.q != q || t.width != curR {
			return d.Corruptf("quotient: table q=%d width=%d, want q=%d width=%d", t.q, t.width, q, curR)
		}
		// Every stored fingerprint, repeats included, occupies one slot.
		if n != uint64(t.used) {
			return d.Corruptf("quotient: n=%d but table holds %d fingerprints", n, t.used)
		}
		f.t = t
	}
	f.r, f.n, f.expansions = curR, int(n), int(expansions)
	return nil
}

// WriteTo serializes the maplet as one KindMaplet frame. Maplets are
// not registered filters (Get returns values, not membership); the LSM
// store persists its policy maplet through this codec directly.
func (m *Maplet) WriteTo(w io.Writer) (int64, error) {
	return codec.Encode(w, codec.KindMaplet, func(e *codec.Enc) error {
		e.U8(uint8(m.r))
		e.U8(uint8(m.vBits))
		e.U64(m.seed)
		e.Bool(m.identity)
		e.U64(uint64(m.n))
		_, err := m.t.writeTo(e)
		return err
	})
}

// ReadFrom restores a maplet written by WriteTo into the receiver. On
// error the receiver is left unchanged.
func (m *Maplet) ReadFrom(r io.Reader) (int64, error) {
	var nm Maplet
	size, err := codec.Decode(r, codec.KindMaplet, nm.decode)
	if err == nil {
		*m = nm
	}
	return size, err
}

// decode reads the fields WriteTo wrote.
func (m *Maplet) decode(d *codec.Dec) error {
	m.r, m.vBits, m.seed, m.identity = uint(d.U8()), uint(d.U8()), d.U64(), d.Bool()
	n := d.U64()
	if m.r < 1 || m.vBits < 1 || m.r+m.vBits > 58 {
		return d.Corruptf("quotient: maplet geometry r=%d vBits=%d out of range", m.r, m.vBits)
	}
	t, err := readTable(d)
	if err != nil {
		return err
	}
	if t.width != m.r+m.vBits {
		return d.Corruptf("quotient: maplet payload width %d, want r+vBits=%d", t.width, m.r+m.vBits)
	}
	// Every entry occupies exactly one slot.
	if n != uint64(t.used) {
		return d.Corruptf("quotient: maplet n=%d but table holds %d entries", n, t.used)
	}
	m.t, m.n = t, int(n)
	return nil
}

// WriteTo serializes the InfiniFilter as one frame: the construction
// Spec, the doublings, the entry and void counts, and the nested table
// frame. The current table width is implied, q = Spec.Q + doublings.
func (f *Infini) WriteTo(w io.Writer) (int64, error) {
	return core.EncodeFrame(w, f.spec, func(e *codec.Enc) error {
		e.U32(uint32(f.exps))
		e.U64(uint64(f.t.used))
		e.U64(uint64(f.voids))
		_, err := f.t.writeTo(e)
		return err
	})
}

// ReadFrom restores an InfiniFilter written by WriteTo into the receiver
// (see core.DecodeFrame for the validation contract), checking the
// table's geometry against the doublings and every code: none is 0,
// each run ascends, and the entries and voids number what the header
// says.
func (f *Infini) ReadFrom(r io.Reader) (int64, error) {
	return core.DecodeFrame(r, core.TypeInfini, f, infiniShape, (*Infini).decode)
}

// decode reads the fields WriteTo wrote into a shaped filter.
func (f *Infini) decode(d *codec.Dec) error {
	exps, n, voids := uint(d.U32()), d.U64(), d.U64()
	t, err := readTable(d)
	if err != nil {
		return err
	}
	if q := uint(f.spec.Q) + exps; t.q != q || t.width != InfiniFreshBits+1 || n != uint64(t.used) {
		return d.Corruptf("quotient: infini table q=%d width=%d used=%d, want q=%d width=%d used=%d",
			t.q, t.width, t.used, q, InfiniFreshBits+1, n)
	}
	gotVoids := uint64(0)
	c, last := t.scan(), entry{fq: ^uint64(0)}
	var buf [256]entry
	for k := c.read(buf[:]); k > 0; k = c.read(buf[:]) {
		for _, e := range buf[:k] {
			if e.v == 0 || e.fq == last.fq && e.v < last.v {
				return d.Corruptf("quotient: infini code %#x in run %d is malformed or out of order", e.v, e.fq)
			}
			if e.v == 1 {
				gotVoids++
			}
			last = e
		}
	}
	if gotVoids != voids {
		return d.Corruptf("quotient: infini header counts %d voids, table holds %d", voids, gotVoids)
	}
	f.t, f.exps, f.voids = t, int(exps), int(voids)
	return nil
}

var (
	_ core.Persistent = (*Filter)(nil)
	_ core.Persistent = (*Infini)(nil)
)
