package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"beyondbloom/internal/codec"
)

// TypeID values identify filter types on the wire. They are allocated
// here, in one table, so two packages can never claim the same id, and
// they are append-only: an id, once released, is never reused or
// renumbered (the golden-file tests pin them). Kinds 1–15 belong to the
// codec substrate containers.
const (
	TypeBloom          uint16 = 16 // bloom.Filter
	TypeBlockedBloom   uint16 = 17 // bloom.Blocked
	TypeCuckoo         uint16 = 18 // cuckoo.Filter
	TypeQuotient       uint16 = 19 // quotient.Filter
	TypeXor            uint16 = 20 // xorfilter.Filter
	TypeSharded        uint16 = 21 // concurrent.Sharded
	TypeBlockedChoices uint16 = 22 // bloom.BlockedChoices
	TypeScalableBloom  uint16 = 23 // bloom.Scalable
	_                  uint16 = 24 // retired: infini.Filter's bucket-list layout
	TypeTaffy          uint16 = 25 // taffy.Filter
	TypeInfini         uint16 = 26 // quotient.Infini

	// Application-layer kinds (not filters; decoded by their owners).
	TypeLSMManifest   uint16 = 32 // lsm store manifest, v1 layout (pre-durability)
	TypeLSMRun        uint16 = 33 // lsm run data file
	TypeLSMManifestV2 uint16 = 34 // lsm store manifest with durability fields
	TypeLSMManifestV3 uint16 = 35 // lsm store manifest with the growable-run-filter flag
)

// Persistent is a filter that can serialize its complete state to a
// stream and restore it bit-identically. WriteTo must emit exactly one
// top-level codec frame whose kind is the filter's Spec type — the
// frame EncodeFrame writes (nested sub-frames live inside, or — for
// multi-part structures like sharded wrappers — follow as sibling
// frames that ReadFrom knows to consume). ReadFrom must work on the
// zero value of the implementing type and must validate everything it
// reads: feeding it corrupt bytes returns an error wrapping
// codec.ErrCorrupt, never a panic and never a filter with silently
// wrong answers.
type Persistent interface {
	Filter
	io.WriterTo
	io.ReaderFrom
}

// Spec describes a filter's construction parameters in one flat,
// serializable struct — the single source of truth that replaces
// per-constructor option plumbing. Not every field applies to every
// filter; unused fields are zero and each filter's FromSpec validates
// the ones it needs.
type Spec struct {
	// Type is the filter's TypeID (which registry entry builds it).
	Type uint16
	// N is the design capacity in keys (the initial capacity for
	// growable filters).
	N int
	// BitsPerKey is the space budget for Bloom-family filters. Growable
	// filter types (TypeScalableBloom, TypeTaffy) reuse this field for
	// their target compound false-positive budget ε — the two meanings
	// cannot collide, since a bits budget is ≥ 1 and an ε is < 1, and
	// each filter's FromSpec validates the range it needs.
	BitsPerKey float64
	// FPBits is the fingerprint width for cuckoo/xor filters.
	FPBits uint8
	// Q and R are the quotient filter geometry (log2 slots, remainder
	// bits).
	Q, R uint8
	// Seed is the hash seed.
	Seed uint64
	// LogShards is the shard count exponent for sharded wrappers.
	LogShards uint8
}

// encode appends the spec's canonical encoding to e. The field set is
// fixed for format version 1; adding a field means bumping the codec
// version.
func (s Spec) encode(e *codec.Enc) {
	e.U16(s.Type)
	e.U64(uint64(s.N))
	e.F64(s.BitsPerKey)
	e.U8(s.FPBits)
	e.U8(s.Q)
	e.U8(s.R)
	e.U64(s.Seed)
	e.U8(s.LogShards)
}

// decodeSpec consumes a spec from d (errors accumulate in d).
func decodeSpec(d *codec.Dec) Spec {
	var s Spec
	s.Type = d.U16()
	if n := d.U64(); n <= math.MaxInt {
		s.N = int(n)
	} else {
		d.Corruptf("spec claims %d keys, past the largest int", n)
	}
	s.BitsPerKey = d.F64()
	s.FPBits = d.U8()
	s.Q = d.U8()
	s.R = d.U8()
	s.Seed = d.U64()
	s.LogShards = d.U8()
	return s
}

// sameBits reports whether s and t encode to the same bytes (== would
// equate 0 and -0 and tell a NaN apart from itself).
func (s Spec) sameBits(t Spec) bool {
	bs, bt := s.BitsPerKey, t.BitsPerKey
	s.BitsPerKey, t.BitsPerKey = 0, 0
	return s == t && math.Float64bits(bs) == math.Float64bits(bt)
}

// EncodeFrame writes a filter's frame: the frame kind is spec.Type, and
// the payload is the spec followed by the fields fill appends. fill may
// be nil when the payload is the Spec alone.
func EncodeFrame(w io.Writer, spec Spec, fill func(*codec.Enc) error) (int64, error) {
	return codec.Encode(w, spec.Type, func(e *codec.Enc) error {
		spec.encode(e)
		if fill == nil {
			return nil
		}
		return fill(e)
	})
}

// DecodeFrame reads a frame written by EncodeFrame into *dst and
// returns its size. The Spec is checked before anything is sized from
// it: shape validates the Spec and returns the filter with its geometry
// set and no Spec-sized array allocated, and read then fills the arrays
// from the payload, checking them against that geometry. The payload
// must be consumed exactly, and the decoded filter's Spec must encode
// to the bytes it was read from, so a successful load re-encodes
// canonically. Every failure wraps codec.ErrCorrupt, and on failure
// *dst is left unchanged. read may be nil when the payload is the Spec
// alone.
func DecodeFrame[T any, P interface {
	*T
	Spec() Spec
}](r io.Reader, kind uint16, dst P, shape func(Spec) (P, error), read func(P, *codec.Dec) error) (int64, error) {
	var f P
	n, err := codec.Decode(r, kind, func(d *codec.Dec) error {
		spec := decodeSpec(d)
		var err error
		if f, err = shape(spec); err != nil {
			return d.Corruptf("%v", err)
		}
		if read != nil {
			if err := read(f, d); err != nil {
				return err
			}
		}
		if !f.Spec().sameBits(spec) {
			return d.Corruptf("%s: spec %+v is not the canonical %+v", TypeName(kind), spec, f.Spec())
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	*dst = *f
	return n, nil
}

// registryEntry is one registered filter type.
type registryEntry struct {
	name string
	// empty returns a zero-value filter ready for ReadFrom.
	empty func() Persistent
	// build constructs a fresh filter from a Spec (nil for filter types
	// whose construction needs more than parameters, e.g. static
	// filters built from a key set).
	build func(Spec) (Persistent, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[uint16]registryEntry{}
)

// Register adds the filter type *T to the persistence registry under
// id; Load decodes frames of that kind into a zero T. It is called from
// the filter packages' init functions; registering the same id twice
// panics (it means two packages claimed one TypeID). build may be nil
// for types that cannot be constructed from a Spec alone — spell the
// type out then, as in Register[Filter](id, name, nil).
func Register[T any, P interface {
	*T
	Persistent
}](id uint16, name string, build func(Spec) (P, error)) {
	ent := registryEntry{name: name, empty: func() Persistent { return P(new(T)) }}
	if build != nil {
		ent.build = func(s Spec) (Persistent, error) {
			f, err := build(s)
			if err != nil {
				return nil, err
			}
			return f, nil
		}
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if prev, dup := registry[id]; dup {
		panic(fmt.Sprintf("core: TypeID %d registered twice (%q and %q)", id, prev.name, name))
	}
	registry[id] = ent
}

// TypeName returns the registered name for a TypeID ("" if unknown).
func TypeName(id uint16) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[id].name
}

// RegisteredTypes returns the registered TypeIDs in ascending order.
func RegisteredTypes() []uint16 {
	registryMu.RLock()
	defer registryMu.RUnlock()
	ids := make([]uint16, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func lookup(id uint16) (registryEntry, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	ent, ok := registry[id]
	if !ok {
		return registryEntry{}, fmt.Errorf("%w: unregistered filter TypeID %d (is the filter's package imported?)", codec.ErrCorrupt, id)
	}
	return ent, nil
}

// Save writes f's complete state to w. It is WriteTo with the envelope
// contract spelled out: the stream starts with a frame whose kind is
// f's Spec type, which is what Load dispatches on.
func Save(w io.Writer, f Persistent) (int64, error) {
	return f.WriteTo(w)
}

// Load reads one filter from r: it peeks the leading frame header,
// looks its kind up in the registry, and hands the frame to a zero
// value of the registered type. The reader is left positioned
// immediately after the filter's encoding, so several filters can be
// loaded from one stream back to back. Bytes already in memory load
// fastest from a codec.Dec, whose frames decode in place.
func Load(r io.Reader) (Persistent, error) {
	kind, frame, err := codec.PeekKind(r)
	if err != nil {
		return nil, err
	}
	ent, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	f := ent.empty()
	if _, err := f.ReadFrom(frame); err != nil {
		return nil, fmt.Errorf("loading %s: %w", ent.name, err)
	}
	return f, nil
}

// Build constructs a fresh, empty filter from its Spec via the
// registry. Filter types whose construction needs more than parameters
// (static filters built from a key set) return an error.
func Build(s Spec) (Persistent, error) {
	ent, err := lookup(s.Type)
	if err != nil {
		return nil, err
	}
	if ent.build == nil {
		return nil, fmt.Errorf("core: filter type %s (%d) cannot be built from a Spec alone", ent.name, s.Type)
	}
	return ent.build(s)
}
