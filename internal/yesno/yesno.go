// Package yesno implements the §3.3 networking/cybersecurity case study:
// blocking malicious URLs with a filter ("yes list") while protecting
// important benign URLs from false blocking ("no list").
//
// Three blockers reproduce the tutorial's storyline:
//
//   - PlainBloom: the traditional design. Benign URLs that collide with
//     the filter pay the verification penalty forever.
//   - StaticNoList: a stacked/Bloomier-style design where a known, fixed
//     set of benign URLs is exempted at build time (Chazelle et al.'s
//     Bloomier filter, SSCF, the Integrated Filter). Unknown benign URLs
//     still pay.
//   - Adaptive: an adaptive-filter design (Wen et al.): any benign URL
//     discovered to be falsely blocked is adapted away, so each pays the
//     penalty O(1) times — solving the dynamic yes/no-list problem.
package yesno

import (
	"beyondbloom/internal/adaptive"
	"beyondbloom/internal/bloom"
	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/stacked"
)

// Key hashes a URL to the uint64 key space shared by all blockers.
// Sum64String hashes the string in place, so the per-check []byte
// conversion (one heap allocation per URL) is gone from the hot path.
func Key(url string) uint64 { return hashutil.Sum64String(url, 0x09e5) }

// Verdict is the result of checking one URL.
type Verdict struct {
	Blocked bool
	// Verified reports whether the expensive URL-verification step ran
	// (the cost filters exist to avoid).
	Verified bool
}

// Blocker is a malicious-URL filter frontend.
type Blocker interface {
	// Check classifies a URL. isMalicious is ground truth supplied by
	// the verification oracle, consulted only when the filter fires.
	Check(url string, isMalicious bool) Verdict
	SizeBits() int
}

// PlainBloom is the traditional Bloom-filter blocker.
type PlainBloom struct {
	filter *bloom.Filter
}

// NewPlainBloom builds the blocker over the malicious URL set.
func NewPlainBloom(malicious []string, bitsPerKey float64) *PlainBloom {
	f := bloom.NewBits(max(len(malicious), 1), bitsPerKey)
	for _, u := range malicious {
		f.Insert(Key(u))
	}
	return &PlainBloom{filter: f}
}

// Check blocks when the filter fires; a fired filter triggers
// verification, and verified-benign URLs are passed through (but the
// penalty was paid, and will be paid again next time).
func (p *PlainBloom) Check(url string, isMalicious bool) Verdict {
	if !p.filter.Contains(Key(url)) {
		return Verdict{}
	}
	return Verdict{Blocked: isMalicious, Verified: true}
}

// SizeBits returns the filter footprint.
func (p *PlainBloom) SizeBits() int { return p.filter.SizeBits() }

// StaticNoList exempts a fixed benign sample via a stacked filter.
type StaticNoList struct {
	filter *stacked.Filter
}

// NewStaticNoList builds the blocker over malicious URLs with a static
// no-list of known benign URLs.
func NewStaticNoList(malicious, knownBenign []string, bitsPerKey float64) *StaticNoList {
	pos := make([]uint64, len(malicious))
	for i, u := range malicious {
		pos[i] = Key(u)
	}
	neg := make([]uint64, len(knownBenign))
	for i, u := range knownBenign {
		neg[i] = Key(u)
	}
	return &StaticNoList{filter: stacked.New(pos, neg, bitsPerKey, 3)}
}

// Check blocks when the stacked filter fires.
func (s *StaticNoList) Check(url string, isMalicious bool) Verdict {
	if !s.filter.Contains(Key(url)) {
		return Verdict{}
	}
	return Verdict{Blocked: isMalicious, Verified: true}
}

// SizeBits returns the stacked filter footprint.
func (s *StaticNoList) SizeBits() int { return s.filter.SizeBits() }

// Adaptive uses an adaptive quotient filter: every verified-benign hit is
// adapted away, building the no-list dynamically.
type Adaptive struct {
	filter *adaptive.QF
}

// NewAdaptive builds the blocker over malicious URLs. q and r size the
// quotient filter.
func NewAdaptive(malicious []string, q, r uint) *Adaptive {
	f := adaptive.NewQF(q, r, adaptive.ExtendUntilDistinct)
	for _, u := range malicious {
		if err := f.Insert(Key(u)); err != nil {
			panic("yesno: adaptive filter full — raise q")
		}
	}
	return &Adaptive{filter: f}
}

// Check blocks when the filter fires; verified-benign hits adapt the
// filter so the same URL never pays again.
func (a *Adaptive) Check(url string, isMalicious bool) Verdict {
	k := Key(url)
	if !a.filter.Contains(k) {
		return Verdict{}
	}
	if !isMalicious {
		a.filter.Adapt(k)
		return Verdict{Verified: true}
	}
	return Verdict{Blocked: true, Verified: true}
}

// SizeBits returns the filter footprint including adaptivity bits.
func (a *Adaptive) SizeBits() int { return a.filter.SizeBits() }

// Stats aggregates a blocker's behaviour over a traffic stream.
type Stats struct {
	Requests      int
	Blocked       int
	Verifications int
	FalseBlocks   int // benign URLs that would have been delayed/blocked
}

// Run replays a URL stream against a blocker. maliciousSet supplies
// ground truth (standing in for the expensive verification service).
func Run(b Blocker, stream []string, maliciousSet map[string]bool) Stats {
	var st Stats
	for _, u := range stream {
		st.Requests++
		v := b.Check(u, maliciousSet[u])
		if v.Verified {
			st.Verifications++
			if !maliciousSet[u] {
				st.FalseBlocks++
			}
		}
		if v.Blocked {
			st.Blocked++
		}
	}
	return st
}
