// Package ef implements the Elias–Fano encoding of monotone integer
// sequences. Given n non-decreasing values in a universe [0, u), it stores
// them in n*ceil(log2(u/n)) + 2n + o(n) bits while supporting O(1) access
// by rank and efficient predecessor / range-emptiness queries.
//
// Grafite stores sorted hash codes in an Elias–Fano sequence and answers
// range emptiness by checking whether any code falls inside the query's
// image; SNARF stores the positions of set bits of its sparse bit array
// the same way.
package ef

import (
	"math/bits"

	"beyondbloom/internal/bitvec"
)

// Sequence is an immutable Elias–Fano encoded monotone sequence.
type Sequence struct {
	n        int
	universe uint64
	low      *bitvec.Packed // n low halves, lowBits wide (nil if lowBits==0)
	lowBits  uint
	high     *bitvec.Vector     // unary-coded high halves
	highRS   *bitvec.RankSelect // select1 for access, select0/rank for search
}

// New encodes vals, which must be non-decreasing and < universe.
// universe must be at least 1. An empty sequence is allowed.
func New(vals []uint64, universe uint64) *Sequence {
	if universe == 0 {
		universe = 1
	}
	n := len(vals)
	var lowBits uint
	if n > 0 && universe > uint64(n) {
		lowBits = uint(bits.Len64(universe/uint64(n) - 1))
	}

	s := &Sequence{n: n, universe: universe, lowBits: lowBits}
	if lowBits > 0 {
		s.low = bitvec.NewPacked(n, lowBits)
	}
	// High part: for each value, its top bits h(i) = v>>lowBits are
	// encoded in unary as a bit vector with a 1 for each element and a 0
	// for each increment of the high value: position of the i-th 1 is
	// h(i) + i.
	maxHigh := 0
	if n > 0 {
		maxHigh = int((vals[n-1]) >> lowBits)
	}
	s.high = bitvec.New(maxHigh + n + 1)
	var prev uint64
	for i, v := range vals {
		if v < prev {
			panic("ef: values not monotone")
		}
		if v >= universe {
			panic("ef: value out of universe")
		}
		prev = v
		if lowBits > 0 {
			s.low.Set(i, v&((1<<lowBits)-1))
		}
		s.high.Set(int(v>>lowBits) + i)
	}
	s.highRS = bitvec.NewRankSelect(s.high)
	return s
}

// Len returns the number of encoded values.
func (s *Sequence) Len() int { return s.n }

// Universe returns the exclusive upper bound given at encode time.
func (s *Sequence) Universe() uint64 { return s.universe }

// Get returns the i-th value (0-based).
func (s *Sequence) Get(i int) uint64 {
	pos := s.highRS.Select1(i)
	hi := uint64(pos - i)
	var lo uint64
	if s.lowBits > 0 {
		lo = s.low.Get(i)
	}
	return hi<<s.lowBits | lo
}

// SuccessorIndex returns the smallest index i with Get(i) >= x, or Len()
// if all values are smaller.
func (s *Sequence) SuccessorIndex(x uint64) int {
	if s.n == 0 {
		return 0
	}
	hx := int(x >> s.lowBits)
	// Elements with high part < hx are all before the candidate region.
	// Rank of ones before the zero that terminates high bucket hx-1:
	// the number of elements with high < hx is Rank1(Select0(hx-1)) for
	// hx > 0 (the hx-th zero, 0-based index hx-1, closes bucket hx-1).
	var lo int
	if hx > 0 {
		zeros := s.high.Len() - s.highRS.Ones()
		if hx-1 >= zeros {
			// x's high part is beyond every encoded bucket.
			return s.n
		}
		lo = s.highRS.Rank1(s.highRS.Select0(hx - 1))
	}
	// Binary search within the remaining tail for the first value >= x.
	hi := s.n
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Get(mid) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RangeEmpty reports whether the closed interval [a, b] contains none of
// the encoded values.
func (s *Sequence) RangeEmpty(a, b uint64) bool {
	if a > b {
		return true
	}
	i := s.SuccessorIndex(a)
	return i >= s.n || s.Get(i) > b
}

// Contains reports whether x is one of the encoded values.
func (s *Sequence) Contains(x uint64) bool {
	i := s.SuccessorIndex(x)
	return i < s.n && s.Get(i) == x
}

// SizeBits returns the footprint of the encoding in bits (payload plus
// the rank/select directory).
func (s *Sequence) SizeBits() int {
	bitsTotal := s.high.SizeBits() + s.highRS.SizeBits()
	if s.low != nil {
		bitsTotal += s.low.SizeBits()
	}
	return bitsTotal
}
