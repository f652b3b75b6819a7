// Package fault is the repository's fault-injection substrate. The
// tutorial's surrounding-system stories (§2.3's adaptive filters fronting
// a remote dictionary, §3.1's LSM-tree fronting a block device) all
// assume the backing store is slow and unreliable — that is *why*
// filters pay for themselves. This package makes that assumption
// executable:
//
//   - Injector: a deterministic, seed-driven source of faults (transient
//     errors, permanent errors, detected bit-flip corruption) governed by
//     op-window schedules such as "fail 10% of calls between ops 1000 and
//     2000". Same seed, same schedule, same faults — experiments stay
//     reproducible.
//
//   - Retry: a bounded retry of transient errors, the one resilience
//     policy the callers need before they fall back (to a replica, or to
//     a fail-safe answer with a deferred repair).
//
//   - FS and CrashFS (fs.go): the filesystem surface the durable layers
//     write through, and a simulated one that crashes at a chosen
//     operation.
//
// Corruption is always *detected* corruption (a checksum mismatch
// surfacing as an error), never a silently wrong answer: the layers
// above (adaptive repair, LSM degraded lookups) rely on errors being
// visible to preserve their no-false-negative guarantees.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors produced by the injector.
var (
	// ErrTransient marks a failure that may succeed on retry.
	ErrTransient = errors.New("fault: transient error")

	// ErrPermanent marks a failure retrying cannot fix.
	ErrPermanent = errors.New("fault: permanent error")

	// ErrCorrupt marks a detected corruption (checksum mismatch). It is
	// transient from the caller's perspective: re-reading (or reading a
	// replica) may return intact data.
	ErrCorrupt = fmt.Errorf("fault: detected corruption: %w", ErrTransient)
)

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Retry runs op until it succeeds, fails with a non-transient error,
// has run attempts times, or fails transiently after ctx is done. It
// always runs op at least once and returns op's last error.
func Retry(ctx context.Context, attempts int, op func() error) error {
	for i := 1; ; i++ {
		err := op()
		if err == nil || !IsTransient(err) || i >= attempts || ctx.Err() != nil {
			return err
		}
	}
}

// Kind classifies an injected fault.
type Kind int

const (
	// KindTransient fails the op with ErrTransient.
	KindTransient Kind = iota
	// KindPermanent fails the op with ErrPermanent.
	KindPermanent
	// KindBitFlip corrupts the op's payload; Outcome.FlipBit selects the
	// bit. Callers that checksum (all of ours) surface it as ErrCorrupt.
	KindBitFlip
)

// Rule injects one kind of fault at a given rate inside an op window.
// Ops are numbered from 1 in injector order; the window is [From, To),
// with To == 0 meaning "forever". Rate is a probability in [0, 1].
type Rule struct {
	Kind Kind
	Rate float64
	From uint64
	To   uint64
}

// active reports whether the rule applies to op.
func (r Rule) active(op uint64) bool {
	return op >= r.From && (r.To == 0 || op < r.To)
}

// Transient returns an always-on transient-error rule.
func Transient(rate float64) Rule { return Rule{Kind: KindTransient, Rate: rate} }

// TransientBetween returns a transient-error rule active on ops
// [from, to).
func TransientBetween(rate float64, from, to uint64) Rule {
	return Rule{Kind: KindTransient, Rate: rate, From: from, To: to}
}

// Permanent returns an always-on permanent-error rule.
func Permanent(rate float64) Rule { return Rule{Kind: KindPermanent, Rate: rate} }

// BitFlip returns a detected-corruption rule.
func BitFlip(rate float64) Rule { return Rule{Kind: KindBitFlip, Rate: rate} }

// Outcome is the injector's verdict for one operation.
type Outcome struct {
	// Err is non-nil when the op should fail.
	Err error
	// FlipBit is the bit index (0-63) to corrupt in the op's payload, or
	// -1 for no corruption.
	FlipBit int
}

// Stats counts what the injector has done.
type Stats struct {
	Ops        uint64
	Transients uint64
	Permanents uint64
	BitFlips   uint64
}

// Injector produces deterministic fault outcomes. It is safe for
// concurrent use.
type Injector struct {
	mu    sync.Mutex
	state uint64
	rules []Rule
	op    uint64
	stats Stats
}

// NewInjector returns an injector seeded for reproducibility. With no
// rules it never faults (every Outcome is clean), so a nil-vs-healthy
// distinction is unnecessary for callers that always construct one.
func NewInjector(seed uint64, rules ...Rule) *Injector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Injector{state: seed, rules: rules}
}

// next is xorshift64*: fast, deterministic, good enough for rates.
func (in *Injector) next() uint64 {
	x := in.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.state = x
	return x * 0x2545F4914F6CDD1D
}

// chance returns true with probability rate.
func (in *Injector) chance(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(in.next()>>11)/float64(1<<53) < rate
}

// Next advances the op counter and returns the outcome for this op.
// Rules are evaluated in order; the first matching error rule wins,
// while a bit-flip composes with an error-free outcome.
func (in *Injector) Next() Outcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.op++
	in.stats.Ops++
	out := Outcome{FlipBit: -1}
	for _, r := range in.rules {
		if !r.active(in.op) || !in.chance(r.Rate) {
			continue
		}
		switch r.Kind {
		case KindTransient:
			if out.Err != nil {
				continue
			}
			out.Err = ErrTransient
			in.stats.Transients++
		case KindPermanent:
			if out.Err != nil {
				continue
			}
			out.Err = ErrPermanent
			in.stats.Permanents++
		case KindBitFlip:
			if out.FlipBit >= 0 {
				continue
			}
			out.FlipBit = int(in.next() & 63)
			in.stats.BitFlips++
		}
	}
	return out
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
