package adaptive

import (
	"context"
	"sync"

	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
)

// ResilientOptions configure the lookup-and-repair loop.
type ResilientOptions struct {
	// Attempts bounds the remote calls one verification makes, retrying
	// transient failures (0 or 1: a single attempt).
	Attempts int
}

// maxDeferred caps the deferred-repair set. Keys that find the set full
// are simply re-deferred on their next hit, so the cap bounds memory,
// not correctness.
const maxDeferred = 1024

// ResilientStats counts the loop's behavior.
type ResilientStats struct {
	Lookups         uint64 // Contains calls
	FilterNegatives uint64 // lookups the filter rejected outright
	RemoteAccesses  uint64 // verification calls issued to the remote
	RemoteErrors    uint64 // verifications that ultimately failed
	Adapts          uint64 // false positives repaired
	Deferred        uint64 // repairs postponed because the remote erred
	RepairedLater   uint64 // deferred repairs completed on a later hit
	DroppedDeferred uint64 // deferrals not recorded (set at maxDeferred)
}

// Resilient is the adaptive-filter repair loop of §2.3 made robust to an
// unreliable remote: it verifies every filter positive against a
// FallibleRemote and repairs discovered false positives via Adapt, but
// when the remote errs it degrades gracefully — the positive is reported
// as-is (fail-safe), the repair is deferred, and a later hit on the same
// key retries the verification. Degradation never introduces a false
// negative: the filter is only consulted for negatives, and Adapt only
// runs after the remote definitively reports the key absent.
type Resilient struct {
	mu       sync.Mutex
	filter   core.AdaptiveFilter
	remote   core.FallibleRemote
	opts     ResilientOptions
	deferred map[uint64]struct{}
	stats    ResilientStats
}

// NewResilient wraps filter and remote with the given resilience policy.
func NewResilient(filter core.AdaptiveFilter, remote core.FallibleRemote, opts ResilientOptions) *Resilient {
	return &Resilient{
		filter:   filter,
		remote:   remote,
		opts:     opts,
		deferred: make(map[uint64]struct{}),
	}
}

// verify asks the remote about key, retrying transient failures up to
// Attempts calls.
func (r *Resilient) verify(ctx context.Context, key uint64) (present bool, err error) {
	err = fault.Retry(ctx, r.opts.Attempts, func() error {
		var err error
		present, err = r.remote.Contains(ctx, key)
		return err
	})
	return present, err
}

// Contains runs the full lookup: filter probe, remote verification of
// positives, repair (or deferred repair) of false positives. The answer
// is the ground truth whenever the remote is reachable, and the filter's
// (fail-safe) positive when it is not.
func (r *Resilient) Contains(ctx context.Context, key uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Lookups++
	if !r.filter.Contains(key) {
		r.stats.FilterNegatives++
		return false
	}
	r.stats.RemoteAccesses++
	r.mu.Unlock()
	present, err := r.verify(ctx, key)
	r.mu.Lock()
	if err != nil {
		r.stats.RemoteErrors++
		r.defer_(key)
		return true // unverifiable: fail safe, repair later
	}
	if present {
		// A definitive hit needs no repair; clear any stale deferral.
		delete(r.deferred, key)
		return true
	}
	r.filter.Adapt(key)
	r.stats.Adapts++
	if _, was := r.deferred[key]; was {
		delete(r.deferred, key)
		r.stats.RepairedLater++
	}
	return false
}

// defer_ records a pending repair; caller holds the lock.
func (r *Resilient) defer_(key uint64) {
	r.stats.Deferred++
	if _, ok := r.deferred[key]; ok {
		return
	}
	if len(r.deferred) >= maxDeferred {
		r.stats.DroppedDeferred++
		return
	}
	r.deferred[key] = struct{}{}
}

// PendingRepairs returns how many keys currently await a deferred
// repair.
func (r *Resilient) PendingRepairs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.deferred)
}

// Stats returns a snapshot of the loop counters.
func (r *Resilient) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// SizeBits reports the wrapped filter's footprint.
func (r *Resilient) SizeBits() int { return r.filter.SizeBits() }
