package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondbloom/internal/lsm"
)

// TestEngineClosedRejectsAll pins the shutdown contract: after Close,
// every entry point fails fast with ErrShutdown.
func TestEngineClosedRejectsAll(t *testing.T) {
	e := newTestEngine(t, true, Config{})
	e.Close()
	e.Close() // idempotent
	ctx := context.Background()
	keys, vals, found := []uint64{1}, make([]uint64, 1), make([]bool, 1)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Contains", func() error { _, err := e.Contains(ctx, 1); return err }},
		{"ContainsBatch", func() error { return e.ContainsBatch(keys, found) }},
		{"Get", func() error { _, _, err := e.Get(ctx, 1); return err }},
		{"GetBatch", func() error { return e.GetBatch(keys, vals, found) }},
		{"Apply", func() error { return e.Apply(lsm.Entry{Key: 1, Value: 1}) }},
		{"Insert", func() error { return e.Insert(1) }},
		{"InsertBatch", func() error { return e.InsertBatch(keys) }},
	} {
		if err := tc.call(); !errors.Is(err, ErrShutdown) {
			t.Errorf("%s after Close = %v, want ErrShutdown", tc.name, err)
		}
	}
}

// TestEngineCloseRace closes the engine while goroutines hammer the
// point paths: every call returns its correct answer or ErrShutdown —
// never a hang, never a wrong value — and no call that starts after
// Close has returned gets an answer.
func TestEngineCloseRace(t *testing.T) {
	const nKeys = 256
	for round := 0; round < 20; round++ {
		e := newTestEngine(t, true, Config{})
		// Even keys are in the filter and the store (value 2k+1); the
		// filter's answer for odd keys is whatever it was before the run.
		for k := uint64(0); k < nKeys; k += 2 {
			if err := e.Insert(k); err != nil {
				t.Fatal(err)
			}
			if err := e.Apply(lsm.Entry{Key: k, Value: 2*k + 1}); err != nil {
				t.Fatal(err)
			}
		}
		var member [nKeys]bool
		for k := range member {
			member[k] = e.Filter().Filter.Contains(uint64(k))
		}

		var closedReturned atomic.Bool
		var wrong, answered atomic.Int64
		check := func(after bool, err error, correct bool) {
			switch {
			case err != nil && !errors.Is(err, ErrShutdown):
				wrong.Add(1)
			case err == nil && (after || !correct):
				wrong.Add(1)
			}
			answered.Add(1)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < 100; i++ {
					k := uint64(g*61+i) % nKeys
					after := closedReturned.Load()
					ok, err := e.Contains(ctx, k)
					check(after, err, ok == member[k])
					after = closedReturned.Load()
					v, ok, err := e.Get(ctx, k)
					check(after, err, ok == (k%2 == 0) && (!ok || v == 2*k+1))
				}
			}(g)
		}
		// Close at a different point of the stream each round.
		for answered.Load() < int64(round*40) {
			runtime.Gosched()
		}
		e.Close()
		closedReturned.Store(true)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("requests hung across Close")
		}
		if n := wrong.Load(); n != 0 {
			t.Fatalf("round %d: %d wrong answers", round, n)
		}
	}
}
