package kmer

import (
	"beyondbloom/internal/bloom"
)

// DeBruijn is a probabilistic de Bruijn graph (Pell et al., §3.2): the
// k-mer set lives in a Bloom filter, and edges are implied — node x
// connects to node y when they overlap in k-1 bases and both are
// "present". False positives add spurious nodes/edges; the tutorial's
// observation is that graph structure survives until the false-positive
// rate approaches 0.15.
//
// With an exact membership oracle installed (Chikhi & Rizk), navigation
// becomes exact: the oracle removes the critical false positives — the
// Bloom-positive k-mers adjacent to true k-mers.
type DeBruijn struct {
	K      int
	filter *bloom.Filter
	// exact, when non-nil, refines Bloom positives (critical-FP removal).
	exact func(code uint64) bool
}

// NewDeBruijn builds the probabilistic graph from the canonical k-mer
// codes of the data set.
func NewDeBruijn(k int, codes []uint64, bitsPerKey float64) *DeBruijn {
	f := bloom.NewBitsSeeded(max(len(codes), 1), bitsPerKey, 0xDEB4013)
	for _, c := range codes {
		f.Insert(c)
	}
	return &DeBruijn{K: k, filter: f}
}

// Present reports whether a canonical k-mer code is in the graph.
func (g *DeBruijn) Present(code uint64) bool {
	if !g.filter.Contains(code) {
		return false
	}
	if g.exact != nil {
		return g.exact(code)
	}
	return true
}

// Neighbors returns the canonical codes of present k-mers adjacent to
// code: the up-to-4 right extensions and up-to-4 left extensions.
func (g *DeBruijn) Neighbors(code uint64) []uint64 {
	// code is canonical; recover both orientations to extend.
	var out []uint64
	seen := map[uint64]bool{code: true}
	for _, orient := range [2]uint64{code, RevComp(code, g.K)} {
		mask := uint64(1)<<(2*g.K) - 1
		for b := uint64(0); b < 4; b++ {
			right := Canonical((orient<<2|b)&mask, g.K)
			if !seen[right] && g.Present(right) {
				seen[right] = true
				out = append(out, right)
			}
			left := Canonical(orient>>2|b<<(2*(g.K-1)), g.K)
			if !seen[left] && g.Present(left) {
				seen[left] = true
				out = append(out, left)
			}
		}
	}
	return out
}

// SizeBits returns the Bloom footprint (the exact oracle reports its own
// size separately).
func (g *DeBruijn) SizeBits() int { return g.filter.SizeBits() }

// CriticalFPs computes the critical false positives of the graph: probe
// every extension of every true k-mer; those the Bloom filter claims
// present but the true set lacks are exactly the FPs that affect
// navigation (Chikhi & Rizk's observation: eliminating them suffices for
// an exact traversal representation).
func (g *DeBruijn) CriticalFPs(trueCodes []uint64) []uint64 {
	trueSet := make(map[uint64]struct{}, len(trueCodes))
	for _, c := range trueCodes {
		trueSet[c] = struct{}{}
	}
	mask := uint64(1)<<(2*g.K) - 1
	var cfps []uint64
	emitted := map[uint64]bool{}
	for _, c := range trueCodes {
		for _, orient := range [2]uint64{c, RevComp(c, g.K)} {
			for b := uint64(0); b < 4; b++ {
				for _, ext := range [2]uint64{
					Canonical((orient<<2|b)&mask, g.K),
					Canonical(orient>>2|b<<(2*(g.K-1)), g.K),
				} {
					if emitted[ext] {
						continue
					}
					if _, isTrue := trueSet[ext]; isTrue {
						continue
					}
					if g.filter.Contains(ext) {
						emitted[ext] = true
						cfps = append(cfps, ext)
					}
				}
			}
		}
	}
	return cfps
}

// InstallExactTable makes the graph exact using a plain table of the
// critical false positives (Chikhi & Rizk): a Bloom positive is accepted
// unless it is a known critical FP.
func (g *DeBruijn) InstallExactTable(cfps []uint64) int {
	set := make(map[uint64]struct{}, len(cfps))
	for _, c := range cfps {
		set[c] = struct{}{}
	}
	g.exact = func(code uint64) bool {
		_, bad := set[code]
		return !bad
	}
	return len(cfps) * 64 // table cost in bits (one word per entry)
}

// InstallCascade makes the graph exact using a cascading Bloom filter
// (Salikhov et al.): B2 holds the critical FPs, B3 holds the true k-mers
// B2 wrongly claims, and a final exact list catches the residue. Returns
// the structure's cost in bits, typically far below the plain table's.
func (g *DeBruijn) InstallCascade(trueCodes, cfps []uint64, bitsPerKey float64) int {
	b2 := bloom.NewBitsSeeded(max(len(cfps), 1), bitsPerKey, 0xCA5CADE2)
	for _, c := range cfps {
		b2.Insert(c)
	}
	var wrongTrue []uint64
	for _, c := range trueCodes {
		if b2.Contains(c) {
			wrongTrue = append(wrongTrue, c)
		}
	}
	b3 := bloom.NewBitsSeeded(max(len(wrongTrue), 1), bitsPerKey, 0xCA5CADE3)
	for _, c := range wrongTrue {
		b3.Insert(c)
	}
	// Residue: critical FPs that pass b2 then also pass b3 — must be
	// rejected exactly.
	residue := map[uint64]struct{}{}
	for _, c := range cfps {
		if b3.Contains(c) {
			residue[c] = struct{}{}
		}
	}
	g.exact = func(code uint64) bool {
		if !b2.Contains(code) {
			return true // not a known FP
		}
		if !b3.Contains(code) {
			return false // in the FP filter, not rescued: reject
		}
		_, bad := residue[code]
		return !bad
	}
	return b2.SizeBits() + b3.SizeBits() + len(residue)*64
}

// Components counts connected components among the true k-mers by BFS
// over the (possibly probabilistic) graph. It is the structural-integrity
// metric for E12. At high false-positive rates the implied graph
// percolates through phantom nodes, so exploration is capped at a
// multiple of the true set size; a percolating blob counts as one
// component either way.
func (g *DeBruijn) Components(trueCodes []uint64) int {
	budget := len(trueCodes)*4 + 1000
	visited := make(map[uint64]bool, len(trueCodes))
	comps := 0
	for _, c := range trueCodes {
		if visited[c] {
			continue
		}
		comps++
		queue := []uint64{c}
		visited[c] = true
		for len(queue) > 0 && len(visited) < budget {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range g.Neighbors(cur) {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return comps
}
