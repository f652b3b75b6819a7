package adaptive

import (
	"context"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
)

// buildResilient inserts keys into a fresh adaptive cuckoo filter and an
// exact remote, wrapped with the given injector and options.
func buildResilient(t *testing.T, n int, in *fault.Injector, opts ResilientOptions) (*Resilient, []uint64) {
	t.Helper()
	f := cuckoo.NewAdaptive(n, 10)
	set := core.NewMapSet()
	keys := workload.Keys(n, 21)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
		set.Insert(k)
	}
	return NewResilient(f, fault.NewFallibleSet(set, in), opts), keys
}

func TestResilientNoFalseNegativesUnderTotalFailure(t *testing.T) {
	// Even with every remote call failing, inserted keys must stay
	// present: degradation is fail-safe.
	r, keys := buildResilient(t, 5000, fault.NewInjector(2, fault.Transient(1.0)), ResilientOptions{})
	ctx := context.Background()
	for _, k := range keys {
		if !r.Contains(ctx, k) {
			t.Fatalf("false negative on %d under total remote failure", k)
		}
	}
	if s := r.Stats(); s.RemoteErrors == 0 || s.Adapts != 0 {
		t.Fatalf("stats = %+v: expected errors and no adapts", s)
	}
}

func TestResilientRepairsFalsePositives(t *testing.T) {
	r, _ := buildResilient(t, 5000, fault.NewInjector(2), ResilientOptions{})
	ctx := context.Background()
	neg := workload.DisjointKeys(50000, 21)
	for _, k := range neg {
		if r.Contains(ctx, k) {
			t.Fatalf("healthy remote: Contains must return ground truth for %d", k)
		}
	}
	s := r.Stats()
	if s.Adapts == 0 {
		t.Fatal("no false positives discovered at this size/seed")
	}
	// Every discovered false positive was adapted away: a replay of the
	// same negatives barely touches the remote.
	for _, k := range neg {
		r.Contains(ctx, k)
	}
	s2 := r.Stats()
	if replay := s2.RemoteAccesses - s.RemoteAccesses; replay >= s.Adapts {
		t.Fatalf("replay hit the remote %d times, first pass repaired %d", replay, s.Adapts)
	}
}

func TestResilientDeferredRepairCompletesOnRetry(t *testing.T) {
	// Find a false positive with a clean probe filter, then query it
	// through a remote that fails exactly once.
	f := cuckoo.NewAdaptive(2000, 8)
	set := core.NewMapSet()
	for _, k := range workload.Keys(2000, 31) {
		f.Insert(k)
		set.Insert(k)
	}
	var fp uint64
	found := false
	for _, k := range workload.DisjointKeys(200000, 31) {
		if f.Contains(k) {
			fp, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no false positive found")
	}
	// First remote call fails, all later ones succeed.
	in := fault.NewInjector(3, fault.TransientBetween(1.0, 1, 2))
	r := NewResilient(f, fault.NewFallibleSet(set, in), ResilientOptions{})
	ctx := context.Background()
	if !r.Contains(ctx, fp) {
		t.Fatal("unverifiable positive must be reported present")
	}
	if r.PendingRepairs() != 1 {
		t.Fatalf("PendingRepairs = %d, want 1", r.PendingRepairs())
	}
	if r.Contains(ctx, fp) {
		t.Fatal("second hit should verify and repair")
	}
	s := r.Stats()
	if s.RepairedLater != 1 || s.Adapts != 1 || r.PendingRepairs() != 0 {
		t.Fatalf("stats = %+v pending=%d", s, r.PendingRepairs())
	}
	if r.Contains(ctx, fp) {
		t.Fatal("repaired key resurfaced")
	}
}

func TestResilientRetryMasksTransients(t *testing.T) {
	// 30% transient errors, 4 attempts: almost every verification
	// succeeds, so false positives get repaired and negatives converge.
	in := fault.NewInjector(11, fault.Transient(0.3))
	r, keys := buildResilient(t, 5000, in, ResilientOptions{Attempts: 4})
	ctx := context.Background()
	neg := workload.DisjointKeys(20000, 77)
	for _, k := range neg {
		r.Contains(ctx, k)
	}
	s := r.Stats()
	if s.Adapts == 0 {
		t.Fatalf("no repairs happened: %+v", s)
	}
	// With retries, ultimate failures should be far rarer than the raw
	// 30% error rate (p^4 ~ 0.8%).
	if float64(s.RemoteErrors) > 0.05*float64(s.RemoteAccesses) {
		t.Fatalf("retry not masking transients: %d/%d failed", s.RemoteErrors, s.RemoteAccesses)
	}
	for _, k := range keys {
		if !r.Contains(ctx, k) {
			t.Fatalf("false negative on %d", k)
		}
	}
}

func TestResilientMatchesPlainAdaptiveWhenHealthy(t *testing.T) {
	// With a clean injector the resilient loop must behave exactly like
	// the bare filter + exact remote.
	n := 3000
	plain := cuckoo.NewAdaptive(n, 10)
	set := core.NewMapSet()
	keys := workload.Keys(n, 51)
	for _, k := range keys {
		plain.Insert(k)
		set.Insert(k)
	}
	r := NewResilient(plain, fault.NewFallibleSet(set, fault.NewInjector(1)), ResilientOptions{})
	ctx := context.Background()
	neg := workload.DisjointKeys(10000, 52)
	for _, k := range neg {
		if r.Contains(ctx, k) {
			t.Fatalf("ground-truth negative %d reported present", k)
		}
	}
	if fn := metrics.FalseNegatives(plain, keys); fn != 0 {
		t.Fatalf("%d false negatives after repairs", fn)
	}
}
