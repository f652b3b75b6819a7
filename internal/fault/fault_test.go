package fault

import (
	"context"
	"errors"
	"math"
	"testing"

	"beyondbloom/internal/core"
)

func TestInjectorDeterministic(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(42, Transient(0.3), Permanent(0.05), BitFlip(0.1))
	}
	a, b := mk(), mk()
	for i := 0; i < 10000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("op %d: outcomes diverge: %+v vs %+v", i, oa, ob)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestInjectorRateApprox(t *testing.T) {
	in := NewInjector(7, Transient(0.2))
	n := 100000
	fails := 0
	for i := 0; i < n; i++ {
		if in.Next().Err != nil {
			fails++
		}
	}
	got := float64(fails) / float64(n)
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("transient rate = %.4f, want ~0.20", got)
	}
}

func TestInjectorWindow(t *testing.T) {
	in := NewInjector(3, TransientBetween(1.0, 100, 200))
	for i := uint64(1); i <= 300; i++ {
		o := in.Next()
		inWindow := i >= 100 && i < 200
		if (o.Err != nil) != inWindow {
			t.Fatalf("op %d: err=%v, want fault iff in [100,200)", i, o.Err)
		}
	}
}

func TestInjectorNoRulesClean(t *testing.T) {
	in := NewInjector(1)
	for i := 0; i < 1000; i++ {
		o := in.Next()
		if o.Err != nil || o.FlipBit != -1 {
			t.Fatalf("clean injector faulted: %+v", o)
		}
	}
}

func TestInjectorKinds(t *testing.T) {
	in := NewInjector(9, Permanent(1.0))
	if o := in.Next(); !errors.Is(o.Err, ErrPermanent) || IsTransient(o.Err) {
		t.Fatalf("permanent rule gave %v, want a non-transient ErrPermanent", o.Err)
	}
	in2 := NewInjector(9, BitFlip(1.0))
	o := in2.Next()
	if o.FlipBit < 0 || o.FlipBit > 63 {
		t.Fatalf("FlipBit = %d, want [0,63]", o.FlipBit)
	}
}

func TestErrCorruptIsTransient(t *testing.T) {
	if !IsTransient(ErrCorrupt) {
		t.Fatal("ErrCorrupt should be transient (re-read may succeed)")
	}
	if IsTransient(ErrPermanent) {
		t.Fatal("ErrPermanent must not be transient")
	}
}

func TestRetryEventualSuccess(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 4, func() error {
		calls++
		if calls < 3 {
			return ErrTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestRetryGivesUp(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 3, func() error {
		calls++
		return ErrTransient
	})
	if !errors.Is(err, ErrTransient) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want transient after 3 calls", err, calls)
	}
}

func TestRetryFailsFastOnPermanent(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 5, func() error {
		calls++
		return ErrPermanent
	})
	if !errors.Is(err, ErrPermanent) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want permanent after 1 call", err, calls)
	}
}

func TestRetryAttemptsOnce(t *testing.T) {
	for _, attempts := range []int{0, -1, 1} {
		calls := 0
		err := Retry(context.Background(), attempts, func() error {
			calls++
			return ErrTransient
		})
		if !errors.Is(err, ErrTransient) || calls != 1 {
			t.Fatalf("attempts=%d: err=%v calls=%d, want one transient call", attempts, err, calls)
		}
	}
}

func TestRetryStopsWhenContextDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, 5, func() error {
		calls++
		cancel()
		return ErrTransient
	})
	if !errors.Is(err, ErrTransient) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the transient error after 1 call", err, calls)
	}
}

func TestFallibleSet(t *testing.T) {
	set := core.NewMapSet()
	set.Insert(7)
	ctx := context.Background()

	// Clean injector: exact answers.
	fs := NewFallibleSet(set, NewInjector(1))
	if ok, err := fs.Contains(ctx, 7); err != nil || !ok {
		t.Fatalf("Contains(7) = %v,%v", ok, err)
	}
	if ok, err := fs.Contains(ctx, 8); err != nil || ok {
		t.Fatalf("Contains(8) = %v,%v", ok, err)
	}

	// Always-failing injector: errors, and the remote is never consulted.
	set2 := core.NewMapSet()
	set2.Insert(7)
	fs2 := NewFallibleSet(set2, NewInjector(1, Transient(1.0)))
	if _, err := fs2.Contains(ctx, 7); !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if set2.Accesses() != 0 {
		t.Fatalf("failed call should not touch the remote")
	}

	// Bit flips surface as detected corruption, not a wrong answer.
	fs3 := NewFallibleSet(set, NewInjector(1, BitFlip(1.0)))
	if _, err := fs3.Contains(ctx, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
