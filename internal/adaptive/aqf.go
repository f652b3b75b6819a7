// Package adaptive implements the adaptive quotient filter of §2.3 and
// the lookup-and-repair loop around any adaptive filter. An adaptive
// filter repairs itself when a false positive is discovered, so that no
// negative query — even one chosen adversarially and repeated — keeps
// paying the false-positive cost.
//
//   - QF: a broom-filter-style adaptive quotient filter (Bender et al.;
//     Wen et al.'s practical AQF): the filter keeps the quotient filter's
//     fingerprints and, when a false positive is found, extends the
//     colliding stored fingerprint with adaptivity bits taken from the
//     stored key's own hash until it no longer matches the querying key.
//     With ExtendOneBit the extension grows one bit per correction — the
//     telescoping filter's policy; with ExtendUntilDistinct it grows to
//     the first separating bit in one shot — the broom filter's.
//
//   - Resilient: the host application's loop — verify each positive
//     against the remote and adapt on a false positive — made robust to
//     remote faults by bounded retries and deferred repairs.
//
// The QF needs the stored keys to extend: that is the "remote
// representation" of the broom-filter model (the dictionary on disk that
// the filter guards). Here the remote is kept inline as a
// fingerprint-indexed map of original keys; its space is *not* charged
// to SizeBits, exactly as a filter does not get charged for the database
// it fronts.
package adaptive

import (
	"beyondbloom/internal/core"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/quotient"
)

// ExtendPolicy selects how far an adaptivity extension grows per fix.
type ExtendPolicy int

const (
	// ExtendUntilDistinct grows the stored fingerprint's extension to the
	// first bit separating it from the querying key in one correction —
	// the broom filter's policy, giving monotone adaptivity.
	ExtendUntilDistinct ExtendPolicy = iota
	// ExtendOneBit grows the extension one bit per correction — the
	// telescoping filter's incremental policy (cheaper per fix, may need
	// several fixes for one colliding pair).
	ExtendOneBit
)

// maxExtBits caps extension length (bits of hash above the fingerprint).
const maxExtBits = 32

// ext is an adaptivity extension for one stored key sharing a
// fingerprint: bits of the stored key's hash directly above the
// fingerprint bits.
type ext struct {
	key  uint64 // the stored key (lives in the remote representation)
	bits uint32
	len  uint8
}

// QF is an adaptive quotient filter: a quotient filter plus an extension
// table holding adaptivity bits for fingerprints that have produced
// false positives. Its remote representation (the original keys grouped
// by fingerprint) lets Adapt compute extensions; remote accesses are
// counted so experiments can report the cost adaptivity is saving.
type QF struct {
	qf     *quotient.Filter
	policy ExtendPolicy
	// remote maps fingerprint -> stored keys with that fingerprint. This
	// stands in for the dictionary's own storage (not charged to the
	// filter's size).
	remote map[uint64][]uint64
	// extensions maps fingerprint -> extensions (parallel to remote,
	// possibly shorter: keys with no collisions yet have no extension).
	extensions map[uint64][]ext
	q, r       uint
	seed       uint64
	adapts     int
	extBits    int // total adaptivity bits stored (space accounting)
}

// NewQF returns an adaptive quotient filter with 2^q slots and r-bit
// remainders.
func NewQF(q, r uint, policy ExtendPolicy) *QF {
	const seed = 0xADAF7
	return &QF{
		// The underlying filter shares our seed so its fingerprint space
		// is exactly fingerprintOf's: extensions then cover every
		// fingerprint-level collision the filter can produce.
		qf:         quotient.NewWithSeed(q, r, seed),
		policy:     policy,
		remote:     make(map[uint64][]uint64),
		extensions: make(map[uint64][]ext),
		q:          q,
		r:          r,
		seed:       seed,
	}
}

// fingerprint mirrors the quotient filter's key hashing but is computed
// here so extension bits can come from the same hash stream.
func (a *QF) hash(key uint64) uint64 { return hashutil.MixSeed(key, a.seed) }

func (a *QF) fingerprintOf(key uint64) uint64 {
	return a.hash(key) & hashutil.Mask(a.q+a.r)
}

// extOf returns length bits of key's hash directly above the fingerprint.
func (a *QF) extOf(key uint64, length uint8) uint32 {
	return uint32((a.hash(key) >> (a.q + a.r)) & hashutil.Mask(uint(length)))
}

// Insert adds key.
func (a *QF) Insert(key uint64) error {
	if err := a.qf.Insert(key); err != nil {
		return err
	}
	fp := a.fingerprintOf(key)
	a.remote[fp] = append(a.remote[fp], key)
	return nil
}

// Contains reports whether key may be present, consulting extensions.
func (a *QF) Contains(key uint64) bool {
	if !a.qf.Contains(key) {
		return false
	}
	fp := a.fingerprintOf(key)
	exts := a.extensions[fp]
	if len(exts) == 0 {
		return true
	}
	// The fingerprint matched and extensions exist: key matches only if
	// some stored key's extension agrees with key's hash at that length.
	for _, e := range exts {
		if a.extOf(key, e.len) == e.bits {
			return true
		}
	}
	// Keys in the remote without an extension entry still match on the
	// bare fingerprint.
	return len(exts) < len(a.remote[fp])
}

// Adapt fixes a false positive: every stored key sharing key's
// fingerprint gets (or grows) an extension so that Contains(key) becomes
// false. Each fix consults the remote representation.
func (a *QF) Adapt(key uint64) {
	fp := a.fingerprintOf(key)
	stored := a.remote[fp]
	if len(stored) == 0 {
		return // genuine fingerprint-level false positive with no owner:
		// nothing to extend; cannot occur when all inserts go through us.
	}
	exts := a.extensions[fp]
	// Index extensions by stored key.
	byKey := make(map[uint64]int, len(exts))
	for i, e := range exts {
		byKey[e.key] = i
	}
	for _, sk := range stored {
		if sk == key {
			continue // true positive
		}
		idx, has := byKey[sk]
		var cur ext
		if has {
			cur = exts[idx]
		} else {
			cur = ext{key: sk}
		}
		newLen := cur.len
		switch a.policy {
		case ExtendOneBit:
			if a.extOf(key, newLen) == a.extOf(sk, newLen) && newLen < maxExtBits {
				newLen++
			}
		case ExtendUntilDistinct:
			for newLen < maxExtBits && a.extOf(key, newLen) == a.extOf(sk, newLen) {
				newLen++
			}
		}
		a.extBits += int(newLen - cur.len)
		cur.len = newLen
		cur.bits = uint32(a.extOf(sk, newLen))
		if has {
			exts[idx] = cur
		} else {
			exts = append(exts, cur)
		}
	}
	a.extensions[fp] = exts
	a.adapts++
}

// Delete removes key.
func (a *QF) Delete(key uint64) error {
	fp := a.fingerprintOf(key)
	stored := a.remote[fp]
	found := -1
	for i, sk := range stored {
		if sk == key {
			found = i
			break
		}
	}
	if found < 0 {
		return core.ErrNotFound
	}
	a.remote[fp] = append(stored[:found], stored[found+1:]...)
	if len(a.remote[fp]) == 0 {
		delete(a.remote, fp)
		delete(a.extensions, fp)
		return a.qf.Delete(key)
	}
	// Other keys share the fingerprint: keep it in the filter, drop this
	// key's extension if any.
	exts := a.extensions[fp]
	for i, e := range exts {
		if e.key == key {
			a.extBits -= int(e.len)
			a.extensions[fp] = append(exts[:i], exts[i+1:]...)
			break
		}
	}
	return nil
}

// Adaptations returns how many Adapt calls did structural work.
func (a *QF) Adaptations() int { return a.adapts }

// Len returns the number of stored keys.
func (a *QF) Len() int {
	n := 0
	for _, ks := range a.remote {
		n += len(ks)
	}
	return n
}

// SizeBits charges the quotient filter plus the adaptivity bits (the
// broom filter keeps those in a compact side table; we charge the bits
// themselves plus a small per-extension header, not the Go map).
func (a *QF) SizeBits() int {
	nExts := 0
	for _, e := range a.extensions {
		nExts += len(e)
	}
	return a.qf.SizeBits() + a.extBits + nExts*8
}

var _ core.AdaptiveFilter = (*QF)(nil)
