package server

import (
	"context"
	"testing"

	"beyondbloom/internal/lsm"
)

// TestProbeFrameZeroAlloc pins the binary probe handler's allocation
// contract: at steady state (scratch warm), decoding a frame, probing
// the batch, and encoding the response allocates nothing — the whole
// request is slice reuse over pooled buffers.
func TestProbeFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	store, err := lsm.NewStore(lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e, err := NewEngine(newTestFilter(t, 1<<16), store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := New(e)

	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i) * 7
		if i%2 == 0 {
			if err := e.Insert(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			if err := e.Apply(lsm.Entry{Key: keys[i], Value: keys[i] + 1}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name string
		op   byte
	}{
		{"contains", OpContains},
		{"get", OpGet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &probeScratch{}
			frame := AppendBinaryRequest(nil, tc.op, keys)
			run := func() {
				sc.body = append(sc.body[:0], frame...)
				if _, err := s.probeFrame(sc); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch slices
			if avg := testing.AllocsPerRun(100, run); avg != 0 {
				t.Fatalf("probeFrame(%s) allocates %.1f times per request at steady state, want 0", tc.name, avg)
			}
		})
	}
}

// TestEngineContainsBatchZeroAlloc pins the direct batch path the JSON
// batch handler and the experiment harness share.
func TestEngineContainsBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e, err := NewEngine(newTestFilter(t, 1<<16), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	keys := make([]uint64, 256)
	out := make([]bool, 256)
	for i := range keys {
		keys[i] = uint64(i) * 13
	}
	run := func() {
		if err := e.ContainsBatch(keys, out); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("ContainsBatch allocates %.1f times per call, want 0", avg)
	}
}

// TestCoalescerLoneDoAllocs pins the idle coalescer path: a lone Do
// allocates its window, the done channel and the window's three
// slices, and nothing else.
func TestCoalescerLoneDoAllocs(t *testing.T) {
	c := NewCoalescer(256, func(keys, values []uint64, found []bool) error {
		for i := range keys {
			found[i] = keys[i]&1 == 1
		}
		return nil
	})
	defer c.Close()
	ctx := context.Background()
	run := func() {
		if _, found, err := c.Do(ctx, 7); err != nil || !found {
			t.Fatalf("Do(7) = %v, %v", found, err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(200, run); avg > 5 {
		t.Fatalf("lone Do allocates %.1f times, want <= 5", avg)
	}
}
