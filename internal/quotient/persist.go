package quotient

import (
	"fmt"
	"io"

	"beyondbloom/internal/bitvec"
	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	core.Register(core.TypeQuotient, "quotient",
		func() core.Persistent { return &Filter{} },
		func(s core.Spec) (core.Persistent, error) { return FromSpec(s) })
}

// writeTo serializes the shared physical table as one KindQTable frame:
// geometry, slot usage, the three metadata bit vectors, and the packed
// payload. Every table-based variant (set filter, maplet) reuses this
// one codec.
func (t *table) writeTo(w io.Writer) (int64, error) {
	var e codec.Enc
	e.U8(uint8(t.q))
	e.U8(uint8(t.width))
	e.U64(uint64(t.used))
	for _, v := range [...]*bitvec.Vector{t.occupied, t.continuation, t.shifted} {
		if _, err := v.WriteTo(&e); err != nil {
			return 0, err
		}
	}
	if _, err := t.payload.WriteTo(&e); err != nil {
		return 0, err
	}
	return codec.WriteFrame(w, codec.KindQTable, e.Bytes())
}

// readTable decodes one KindQTable frame and validates it fully: the
// geometry, the substrate lengths, and — via the package's invariant
// checker, whose walk reports bad metadata as an error — that the
// metadata bits describe a consistent set of runs.
func readTable(r io.Reader) (*table, error) {
	payload, err := codec.ReadFrame(r, codec.KindQTable)
	if err != nil {
		return nil, err
	}
	d := codec.NewDec(payload)
	q := uint(d.U8())
	width := uint(d.U8())
	used := d.U64()
	var vecs [3]bitvec.Vector
	for i := range vecs {
		if d.Err() == nil {
			if _, err := vecs[i].ReadFrom(d); err != nil {
				return nil, err
			}
		}
	}
	var payloadBits bitvec.Packed
	if d.Err() == nil {
		if _, err := payloadBits.ReadFrom(d); err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if q < 1 || q > 40 || width < 1 || width > 58 {
		return nil, d.Corruptf("quotient: table geometry q=%d width=%d out of range", q, width)
	}
	slots := uint64(1) << q
	if used >= slots {
		return nil, d.Corruptf("quotient: %d used slots in a %d-slot table", used, slots)
	}
	for _, v := range vecs {
		if uint64(v.Len()) != slots {
			return nil, d.Corruptf("quotient: metadata vector length %d, want %d", v.Len(), slots)
		}
	}
	if uint64(payloadBits.Len()) != slots || payloadBits.Width() != width {
		return nil, d.Corruptf("quotient: payload %d slots × %d bits, want %d × %d",
			payloadBits.Len(), payloadBits.Width(), slots, width)
	}
	t := &table{
		q:            q,
		width:        width,
		slots:        slots,
		mask:         slots - 1,
		occupied:     &vecs[0],
		continuation: &vecs[1],
		shifted:      &vecs[2],
		payload:      &payloadBits,
		used:         int(used),
	}
	if err := t.checkInvariants(); err != nil {
		return nil, fmt.Errorf("%w: quotient: inconsistent table: %v", codec.ErrCorrupt, err)
	}
	return t, nil
}

// TypeID returns the stable wire-format id (see core.Persistent).
func (f *Filter) TypeID() uint16 { return core.TypeQuotient }

// WriteTo serializes the filter as one codec frame: the construction
// Spec, the current (possibly expanded) geometry and expansion state,
// and — unless saturated — the nested table frame.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	var e codec.Enc
	f.spec.Encode(&e)
	e.U8(uint8(f.r))
	e.U64(uint64(f.n))
	e.Bool(f.autoExpand)
	e.Bool(f.saturated)
	e.U32(uint32(f.expansions))
	if !f.saturated {
		if _, err := f.t.writeTo(&e); err != nil {
			return 0, err
		}
	}
	return codec.WriteFrame(w, core.TypeQuotient, e.Bytes())
}

// ReadFrom restores a filter written by WriteTo into the receiver,
// validating the checksum, the Spec, the expansion arithmetic, and the
// full table invariants. On error the receiver is left unchanged.
func (f *Filter) ReadFrom(r io.Reader) (int64, error) {
	payload, err := codec.ReadFrame(r, core.TypeQuotient)
	if err != nil {
		return 0, err
	}
	d := codec.NewDec(payload)
	spec := core.DecodeSpec(d)
	curR := uint(d.U8())
	n := d.U64()
	autoExpand := d.Bool()
	saturated := d.Bool()
	expansions := d.U32()
	var t *table
	if d.Err() == nil && !saturated {
		if t, err = readTable(d); err != nil {
			return 0, err
		}
	}
	if err := d.Finish(); err != nil {
		return 0, err
	}
	if _, err := FromSpec(spec); err != nil {
		return 0, d.Corruptf("%v", err)
	}
	if !saturated {
		// Each doubling moves one fingerprint bit from remainder to
		// quotient; the stored geometry must agree with that arithmetic.
		if t.q != uint(spec.Q)+uint(expansions) || curR != uint(spec.R)-uint(expansions) || t.width != curR {
			return 0, d.Corruptf("quotient: geometry q=%d r=%d width=%d disagrees with spec q=%d r=%d after %d expansions",
				t.q, curR, t.width, spec.Q, spec.R, expansions)
		}
		// Every stored fingerprint, repeats included, occupies one slot.
		if n != uint64(t.used) {
			return 0, d.Corruptf("quotient: n=%d but table holds %d fingerprints", n, t.used)
		}
	}
	f.spec = spec
	f.t = t
	f.r = curR
	f.n = int(n)
	f.autoExpand = autoExpand
	f.saturated = saturated
	f.expansions = int(expansions)
	return int64(codec.HeaderSize + len(payload)), nil
}

// WriteTo serializes the maplet as one KindMaplet frame. Maplets are
// not registered filters (Get returns values, not membership); the LSM
// store persists its policy maplet through this codec directly.
func (m *Maplet) WriteTo(w io.Writer) (int64, error) {
	var e codec.Enc
	e.U8(uint8(m.r))
	e.U8(uint8(m.vBits))
	e.U64(m.seed)
	e.Bool(m.identity)
	e.U64(uint64(m.n))
	if _, err := m.t.writeTo(&e); err != nil {
		return 0, err
	}
	return codec.WriteFrame(w, codec.KindMaplet, e.Bytes())
}

// ReadFrom restores a maplet written by WriteTo into the receiver. On
// error the receiver is left unchanged.
func (m *Maplet) ReadFrom(r io.Reader) (int64, error) {
	payload, err := codec.ReadFrame(r, codec.KindMaplet)
	if err != nil {
		return 0, err
	}
	d := codec.NewDec(payload)
	mr := uint(d.U8())
	vBits := uint(d.U8())
	seed := d.U64()
	identity := d.Bool()
	n := d.U64()
	var t *table
	if d.Err() == nil {
		if t, err = readTable(d); err != nil {
			return 0, err
		}
	}
	if err := d.Finish(); err != nil {
		return 0, err
	}
	if mr < 1 || vBits < 1 || mr+vBits > 58 {
		return 0, d.Corruptf("quotient: maplet geometry r=%d vBits=%d out of range", mr, vBits)
	}
	if t.width != mr+vBits {
		return 0, d.Corruptf("quotient: maplet payload width %d, want r+vBits=%d", t.width, mr+vBits)
	}
	// Every entry occupies exactly one slot.
	if n != uint64(t.used) {
		return 0, d.Corruptf("quotient: maplet n=%d but table holds %d entries", n, t.used)
	}
	m.t = t
	m.r = mr
	m.vBits = vBits
	m.seed = seed
	m.identity = identity
	m.n = int(n)
	return int64(codec.HeaderSize + len(payload)), nil
}

var _ core.Persistent = (*Filter)(nil)
