package server

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refFlush answers windows from a pure function so every test can
// check exact per-key answers: found = key divisible by 3, value =
// key*2. It records the size of every batch it was handed. With a
// gate, every call announces itself on started and then blocks until
// the test sends it one token (or closes the gate), so a test decides
// exactly which requests arrive "during a flush".
type refFlush struct {
	mu      sync.Mutex
	batches []int
	gate    chan struct{}
	started chan struct{}
	failKey uint64 // when non-zero, a window holding this key fails
}

var errRefFlush = errors.New("refFlush: backend failed")

func newGatedFlush() *refFlush {
	// started is sized so no flush call of any test blocks announcing itself.
	return &refFlush{gate: make(chan struct{}), started: make(chan struct{}, 64)}
}

func (r *refFlush) fn(keys []uint64, values []uint64, found []bool) error {
	if r.gate != nil {
		r.started <- struct{}{}
		<-r.gate
	}
	r.mu.Lock()
	r.batches = append(r.batches, len(keys))
	r.mu.Unlock()
	var err error
	for i, k := range keys {
		values[i] = k * 2
		found[i] = k%3 == 0
		if r.failKey != 0 && k == r.failKey {
			err = errRefFlush
		}
	}
	return err
}

// batchSizes returns the sizes of the batches flushed so far, sorted:
// windows that filled during one flush are flushed concurrently, so
// only the multiset is deterministic.
func (r *refFlush) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sizes := append([]int(nil), r.batches...)
	slices.Sort(sizes)
	return sizes
}

func wantAnswer(t *testing.T, key, value uint64, found bool) {
	t.Helper()
	if value != key*2 || found != (key%3 == 0) {
		t.Fatalf("key %d: got (value=%d, found=%v), want (%d, %v)", key, value, found, key*2, key%3 == 0)
	}
}

// spinUntil yields until cond holds. It waits on the condition, not on
// a duration; the deadline only turns a hang into a failure.
func spinUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		runtime.Gosched()
	}
}

type doResult struct {
	value uint64
	found bool
	err   error
}

// rig drives one coalescer over a gated flush, one arrival at a time,
// so which window every request lands in is exact, not
// scheduler-dependent.
type rig struct {
	t       *testing.T
	c       *Coalescer
	flush   *refFlush
	mu      sync.Mutex
	results map[uint64]doResult
	wg      sync.WaitGroup
}

func newRig(t *testing.T, maxBatch int) *rig {
	r := &rig{t: t, flush: newGatedFlush(), results: map[uint64]doResult{}}
	r.c = NewCoalescer(maxBatch, r.flush.fn)
	return r
}

// openWindow reads the open window and its fill level (white-box).
func (r *rig) openWindow() (*cwindow, int) {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.c.cur == nil {
		return nil, 0
	}
	return r.c.cur, len(r.c.cur.keys)
}

func (r *rig) do(ctx context.Context, key uint64) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		v, f, err := r.c.Do(ctx, key)
		r.mu.Lock()
		r.results[key] = doResult{v, f, err}
		r.mu.Unlock()
	}()
}

// first sends the request that finds the coalescer idle and returns
// once its (gated) flush is in flight.
func (r *rig) first(key uint64) {
	r.do(context.Background(), key)
	<-r.flush.started
}

// arrive sends one request while a flush is gated and returns once it
// has entered a window: every way in (join, fill, open) changes the
// open window or its fill level, and nothing else is moving.
func (r *rig) arrive(ctx context.Context, key uint64) {
	w0, n0 := r.openWindow()
	r.do(ctx, key)
	spinUntil(r.t, func() bool {
		w, n := r.openWindow()
		return w != w0 || n != n0
	})
}

// release lets n gated flushes run to completion.
func (r *rig) release(n int) {
	for i := 0; i < n; i++ {
		r.flush.gate <- struct{}{}
	}
}

// result waits for every request sent so far and returns key's outcome.
func (r *rig) result(key uint64) doResult {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[key]
	if !ok {
		r.t.Fatalf("key %d: no result", key)
	}
	return res
}

func (r *rig) wantReal(keys ...uint64) {
	r.t.Helper()
	for _, k := range keys {
		res := r.result(k)
		if res.err != nil {
			r.t.Fatalf("key %d: error %v, want a real answer", k, res.err)
		}
		wantAnswer(r.t, k, res.value, res.found)
	}
}

// TestCoalescerWindowEdges drives the clockless window through its
// edge cases, one subtest per row.
func TestCoalescerWindowEdges(t *testing.T) {
	bg := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"idle coalescer flushes a lone request inline", func(t *testing.T) {
			flush := &refFlush{}
			c := NewCoalescer(1024, flush.fn)
			defer c.Close()
			value, found, err := c.Do(bg, 9)
			if err != nil {
				t.Fatal(err)
			}
			wantAnswer(t, 9, value, found)
			// Nothing but the caller could have flushed it: the answer is
			// there when Do returns, as a window of one.
			if sizes := flush.batchSizes(); !slices.Equal(sizes, []int{1}) {
				t.Fatalf("batch sizes = %v, want [1]", sizes)
			}
			if st := c.Stats(); st.Windows != 1 || st.Keys != 1 || st.LoneFlushes != 1 || st.CapacityFlushes != 0 {
				t.Fatalf("stats = %+v, want one lone window", st)
			}
			// No request waits when nobody is coming: a coalescer that parks
			// lone requests on any timer cannot finish this in a second.
			start := time.Now()
			for i := uint64(0); i < 10000; i++ {
				if _, _, err := c.Do(bg, i); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("10000 sequential lone requests took %v, want < 1s", d)
			}
			if st := c.Stats(); st.LoneFlushes != 10001 {
				t.Fatalf("stats = %+v, want every window lone", st)
			}
		}},
		{"request arriving during a flush starts a fresh window", func(t *testing.T) {
			r := newRig(t, 1024)
			defer r.c.Close()
			r.first(40)
			// The flush is mid-flight; these must land together in one
			// fresh window, not the one being flushed.
			for k := uint64(41); k <= 45; k++ {
				r.arrive(bg, k)
			}
			if _, n := r.openWindow(); n != 5 {
				t.Fatalf("fresh window holds %d keys, want 5", n)
			}
			r.release(1)
			<-r.flush.started // the fresh window's owner seals and flushes it
			if w, _ := r.openWindow(); w != nil {
				t.Fatal("window still open while its flush runs")
			}
			r.release(1)
			r.wantReal(40, 41, 42, 43, 44, 45)
			if sizes := r.flush.batchSizes(); !slices.Equal(sizes, []int{1, 5}) {
				t.Fatalf("batch sizes = %v, want [1 5]", sizes)
			}
			if st := r.c.Stats(); st.Windows != 2 || st.Keys != 6 || st.LoneFlushes != 1 {
				t.Fatalf("stats = %+v, want 2 windows, 6 keys, 1 lone", st)
			}
		}},
		{"full window seals, overflow opens a fresh one", func(t *testing.T) {
			const maxBatch = 4
			r := newRig(t, maxBatch)
			defer r.c.Close()
			r.first(10)
			for k := uint64(11); k < 11+maxBatch+3; k++ {
				r.arrive(bg, k)
			}
			if _, n := r.openWindow(); n != 3 {
				t.Fatalf("overflow window holds %d keys, want 3", n)
			}
			// Both pending windows wait for the one flush in flight and no
			// other: releasing it starts both of theirs.
			r.release(1)
			<-r.flush.started
			<-r.flush.started
			r.release(2)
			r.wantReal(10, 11, 12, 13, 14, 15, 16, 17)
			if sizes := r.flush.batchSizes(); !slices.Equal(sizes, []int{1, 3, maxBatch}) {
				t.Fatalf("batch sizes = %v, want [1 3 %d]", sizes, maxBatch)
			}
			if st := r.c.Stats(); st.Windows != 3 || st.CapacityFlushes != 1 || st.Keys != 8 {
				t.Fatalf("stats = %+v, want 3 windows, one at capacity, 8 keys", st)
			}
		}},
		{"cancelled request abandons its slot without corrupting the batch", func(t *testing.T) {
			r := newRig(t, 1024)
			defer r.c.Close()
			r.first(69)
			r.arrive(bg, 70) // owns the pending window
			ctx, cancel := context.WithCancel(bg)
			r.arrive(ctx, 71) // joins it
			r.arrive(bg, 72)
			cancel()
			// The joiner returns at once, while both flushes are still gated.
			spinUntil(t, func() bool {
				r.mu.Lock()
				defer r.mu.Unlock()
				_, ok := r.results[71]
				return ok
			})
			r.release(1)
			<-r.flush.started
			r.release(1)
			if res := r.result(71); !errors.Is(res.err, context.Canceled) {
				t.Fatalf("cancelled Do error = %v, want context.Canceled", res.err)
			}
			r.wantReal(69, 70, 72)
			if sizes := r.flush.batchSizes(); !slices.Equal(sizes, []int{1, 3}) {
				t.Fatalf("batch sizes = %v, want [1 3] (cancelled slot kept)", sizes)
			}
		}},
		{"cancelled owner still flushes for its joiners", func(t *testing.T) {
			r := newRig(t, 1024)
			defer r.c.Close()
			r.first(79)
			ctx, cancel := context.WithCancel(bg)
			r.arrive(ctx, 80) // owns the pending window
			r.arrive(bg, 81)
			r.arrive(bg, 82)
			cancel()
			r.release(1)
			<-r.flush.started // the cancelled owner did not walk away
			r.release(1)
			r.wantReal(79, 80, 81, 82)
			if sizes := r.flush.batchSizes(); !slices.Equal(sizes, []int{1, 3}) {
				t.Fatalf("batch sizes = %v, want [1 3]", sizes)
			}
		}},
		{"shutdown answers every in-flight waiter, then rejects", func(t *testing.T) {
			r := newRig(t, 1024)
			r.first(60)
			r.arrive(bg, 61)
			r.arrive(bg, 62)
			r.arrive(bg, 63)
			closed := make(chan struct{})
			go func() { r.c.Close(); close(closed) }()
			spinUntil(t, func() bool {
				r.c.mu.Lock()
				defer r.c.mu.Unlock()
				return r.c.closed
			})
			if _, _, err := r.c.Do(bg, 99); !errors.Is(err, ErrShutdown) {
				t.Fatalf("Do during Close error = %v, want ErrShutdown", err)
			}
			select {
			case <-closed:
				t.Fatal("Close returned with two windows unflushed")
			default:
			}
			r.release(1)
			<-r.flush.started
			r.release(1)
			<-closed
			// Close returned: both windows are flushed and nothing starts after.
			if sizes := r.flush.batchSizes(); !slices.Equal(sizes, []int{1, 3}) {
				t.Fatalf("batch sizes at Close = %v, want [1 3]", sizes)
			}
			r.wantReal(60, 61, 62, 63)
			if _, _, err := r.c.Do(bg, 99); !errors.Is(err, ErrShutdown) {
				t.Fatalf("post-close Do error = %v, want ErrShutdown", err)
			}
			r.c.Close() // idempotent
			if st := r.c.Stats(); st.Windows != 2 || st.Rejected != 2 {
				t.Fatalf("stats = %+v, want 2 windows and 2 rejected", st)
			}
		}},
		{"flush error fails the whole window and no other", func(t *testing.T) {
			r := newRig(t, 1024)
			defer r.c.Close()
			r.flush.failKey = 52
			r.first(50)
			r.arrive(bg, 51)
			r.arrive(bg, 52)
			r.arrive(bg, 53)
			r.release(1)
			<-r.flush.started
			r.release(1)
			r.wantReal(50)
			for k := uint64(51); k <= 53; k++ {
				if res := r.result(k); !errors.Is(res.err, errRefFlush) {
					t.Fatalf("key %d: error %v, want the window's flush error", k, res.err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}

// TestCoalescerConcurrentExactness hammers one coalescer from many
// goroutines and checks every single answer against the reference
// function — any cross-slot mixup, lost wakeup, or double delivery
// fails loudly. Run under -race this is the coalescer's core safety
// proof. How much coalescing happens is up to the scheduler (with a
// nanosecond flush, almost none); the gated subtests above pin that.
func TestCoalescerConcurrentExactness(t *testing.T) {
	flush := &refFlush{}
	c := NewCoalescer(16, flush.fn)
	defer c.Close()
	const goroutines = 8
	const perG = 400
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := uint64(g*perG + i)
				value, found, err := c.Do(context.Background(), key)
				if err != nil || value != key*2 || found != (key%3 == 0) {
					wrong.Add(1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent requests hung")
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong or failed answers", n)
	}
	st := c.Stats()
	if st.Keys != goroutines*perG {
		t.Fatalf("flushed %d keys, want %d", st.Keys, goroutines*perG)
	}
	var flushed int
	for _, n := range flush.batchSizes() {
		if n > 16 {
			t.Fatalf("window of %d keys exceeds MaxBatch 16", n)
		}
		flushed += n
	}
	if flushed != goroutines*perG {
		t.Fatalf("backend saw %d keys, want %d", flushed, goroutines*perG)
	}
}

// TestCoalescerCloseRace closes the coalescer while requests are
// arriving from many goroutines: every request must resolve to either
// a correct answer or ErrShutdown — never a hang, never a wrong
// answer — and no flush may start once Close has returned.
func TestCoalescerCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		flush := &refFlush{}
		c := NewCoalescer(8, flush.fn)
		var wg sync.WaitGroup
		var wrong, answered atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					key := uint64(g*1000 + i)
					value, found, err := c.Do(context.Background(), key)
					answered.Add(1)
					if err != nil {
						if !errors.Is(err, ErrShutdown) {
							wrong.Add(1)
						}
						continue
					}
					if value != key*2 || found != (key%3 == 0) {
						wrong.Add(1)
					}
				}
			}(g)
		}
		// Close at a different point of the stream each round.
		for answered.Load() < int64(round*10) {
			runtime.Gosched()
		}
		c.Close()
		flushedAtClose := len(flush.batchSizes())
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
		if n := len(flush.batchSizes()); n != flushedAtClose {
			t.Fatalf("round %d: %d flushes started after Close returned", round, n-flushedAtClose)
		}
	}
}
