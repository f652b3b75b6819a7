package kmer

import (
	"beyondbloom/internal/quotient"
)

// Weighted is a deBGR-style weighted de Bruijn graph (§3.2): node
// abundances live in an approximate counting quotient filter, and the
// structure exploits an abundance invariant of exact weighted de Bruijn
// graphs to self-correct the CQF's (rare) overcounts — "an algorithm
// that uses this approximate data representation to iteratively
// self-correct approximation errors".
//
// The invariant used here (a simplification of deBGR's, documented in
// DESIGN.md): every occurrence of a k-mer inside a read extends to
// exactly one (k+1)-mer on each side, so a node's true abundance is at
// most its incident (k+1)-mer (edge) abundance sum on either side, plus
// the occurrences that touch a read boundary. Node counts inflated by a
// fingerprint collision almost always exceed that bound and are clamped
// to it. Edges are stored in their own CQF with an independent hash, so
// a node-side collision and an edge-side collision on the same k-mer are
// vanishingly unlikely to conspire.
type Weighted struct {
	K     int
	nodes *quotient.Counting // k-mer abundances (approximate)
	edges *quotient.Counting // (k+1)-mer abundances (approximate)
	// boundary tracks read ends: occurrences not followed (resp.
	// preceded) by an edge. Stored exactly; reads are few relative to
	// k-mers and deBGR keeps equivalent end information.
	boundary map[uint64]uint64
}

// NewWeighted returns a weighted graph for about n distinct k-mers at
// CQF error rate delta.
func NewWeighted(k, n int, delta float64) *Weighted {
	if k < 2 || k > 30 {
		panic("kmer: weighted graph needs k in [2,30]")
	}
	return &Weighted{
		K:        k,
		nodes:    quotient.NewCountingForCapacity(n, delta),
		edges:    quotient.NewCountingForCapacity(n*2, delta),
		boundary: make(map[uint64]uint64),
	}
}

// AddRead ingests a read: every canonical k-mer is counted as a node and
// every canonical (k+1)-mer as an edge; the read's first and last k-mers
// are recorded as boundary occurrences.
func (w *Weighted) AddRead(read []byte) error {
	var firstSeen, lastCode uint64
	count := 0
	var err error
	Iterate(read, w.K, func(code uint64) {
		if err != nil {
			return
		}
		if count == 0 {
			firstSeen = code
		}
		lastCode = code
		count++
		err = w.nodes.Add(code, 1)
	})
	if err != nil {
		return err
	}
	Iterate(read, w.K+1, func(code uint64) {
		if err != nil {
			return
		}
		err = w.edges.Add(code, 1)
	})
	if err != nil {
		return err
	}
	if count > 0 {
		w.boundary[firstSeen]++
		w.boundary[lastCode]++
	}
	return nil
}

// RawCount returns the node CQF's abundance (may overcount on
// fingerprint collision).
func (w *Weighted) RawCount(code uint64) uint64 { return w.nodes.Count(code) }

// edgeSums sums the abundance of the up-to-8 incident (k+1)-mer edges:
// the four right extensions and four left extensions of the canonical
// k-mer. An occurrence in either strand orientation lands its two
// incident edges somewhere in this set after canonicalization.
func (w *Weighted) edgeSums(code uint64) (right, left uint64) {
	maskK1 := uint64(1)<<(2*(w.K+1)) - 1
	for b := uint64(0); b < 4; b++ {
		re := (code<<2 | b) & maskK1
		le := b<<(2*w.K) | code
		right += w.edgeWeight(re)
		left += w.edgeWeight(le)
	}
	return
}

// edgeWeight returns an edge's contribution to its endpoint's incidence
// sum. A palindromic (k+1)-mer (its own reverse complement — possible
// because k+1 is even) contains the node in both orientations, so each
// physical occurrence serves two incidences and counts double.
func (w *Weighted) edgeWeight(e uint64) uint64 {
	c := w.edges.Count(Canonical(e, w.K+1))
	if RevComp(e, w.K+1) == e {
		return 2 * c
	}
	return c
}

// Count returns the self-corrected abundance. The exact weighted de
// Bruijn graph satisfies left+right = 2·count − boundary (every
// occurrence has two incident edges except where it touches a read end),
// so (left+right+boundary)/2 bounds the true count; edge-side CQF
// overcounts only loosen the bound upward, so clamping never undercounts.
func (w *Weighted) Count(code uint64) uint64 {
	raw := w.nodes.Count(code)
	if raw == 0 {
		return 0
	}
	right, left := w.edgeSums(code)
	bound := (right + left + w.boundary[code] + 1) / 2
	if raw > bound {
		return bound
	}
	return raw
}

// Present reports whether the k-mer's corrected abundance is positive.
func (w *Weighted) Present(code uint64) bool { return w.Count(code) > 0 }

// Remove deletes occurrences of a k-mer (the partially-dynamic ability
// the tutorial highlights for tip removal and bubble popping). The
// caller supplies the read context via the incident edges to remove.
func (w *Weighted) Remove(code uint64, n uint64) error {
	return w.nodes.Remove(code, n)
}

// SizeBits returns both CQFs plus the boundary table.
func (w *Weighted) SizeBits() int {
	return w.nodes.SizeBits() + w.edges.SizeBits() + len(w.boundary)*96
}
