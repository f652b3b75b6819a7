package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrShutdown is returned to requests that arrive after Close.
var ErrShutdown = errors.New("server: shutting down")

// FlushFunc answers one sealed window: it must fill found[i] (and, for
// KV backends, values[i]) for every keys[i]; values and found arrive
// zeroed and sized to keys. It runs outside the coalescer lock on the
// goroutine of the request that opened the window, concurrently for
// windows that filled during one flush. A non-nil error fails every
// request in the window.
type FlushFunc func(keys []uint64, values []uint64, found []bool) error

// CoalescerStats is a snapshot of the coalescer's counters.
type CoalescerStats struct {
	Windows         int64 // sealed windows flushed
	Keys            int64 // keys across all flushed windows
	CapacityFlushes int64 // windows sealed holding MaxBatch keys
	LoneFlushes     int64 // windows sealed holding their owner's key alone
	Rejected        int64 // requests refused after Close
}

// cwindow is one coalescing window: the shared batch a burst of point
// requests lands in. Its owner fills vals, found and err, then closes
// done; the other requests block on done and read their own slot after.
type cwindow struct {
	keys  []uint64
	vals  []uint64
	found []bool
	done  chan struct{}
	err   error
}

func (w *cwindow) answer(slot int) (uint64, bool, error) {
	if w.err != nil {
		return 0, false, w.err
	}
	return w.vals[slot], w.found[slot], nil
}

// Coalescer batches concurrent point requests into windows answered by
// one FlushFunc call, without a clock: the request that opens a window
// owns it. The owner waits only for the flush already in flight (if
// any), seals the window with whatever joined meanwhile (at most
// MaxBatch keys), runs the flush on its own goroutine and wakes the
// joiners. So every open window has a running owner; an idle coalescer
// answers a lone request inline, as a window of one; a request waits
// for at most one in-flight flush plus its own, so a busy coalescer
// grows windows to "whatever arrived during one flush"; and Close
// returns after the last owner has flushed (DESIGN.md §11).
type Coalescer struct {
	maxBatch int
	flush    FlushFunc

	mu     sync.Mutex
	cur    *cwindow      // the open window, nil if none (or the last one filled)
	tail   chan struct{} // done of the most recently started flush
	closed bool
	owners sync.WaitGroup

	windows         atomic.Int64
	keys            atomic.Int64
	capacityFlushes atomic.Int64
	loneFlushes     atomic.Int64
	rejected        atomic.Int64
}

// NewCoalescer builds a coalescer over flush. maxBatch <= 1 makes every
// request a window of its own.
func NewCoalescer(maxBatch int, flush FlushFunc) *Coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &Coalescer{maxBatch: maxBatch, flush: flush}
}

// Do submits one point request and blocks until its window is flushed.
// A request that joins an open window may give up when ctx is
// cancelled: it abandons its slot, the window still probes the key and
// nobody reads the answer, so cancellation cannot corrupt the shared
// batch. The request that opened the window may not abandon it — its
// joiners have nobody else — so it ignores ctx and returns its real
// answer; its wait is bounded by one in-flight flush plus its own.
// After Close, Do fails fast with ErrShutdown.
func (c *Coalescer) Do(ctx context.Context, key uint64) (value uint64, found bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.rejected.Add(1)
		return 0, false, ErrShutdown
	}
	if w := c.cur; w != nil {
		slot := len(w.keys)
		w.keys = append(w.keys, key)
		if len(w.keys) >= c.maxBatch {
			c.cur = nil // full: the next arrival opens, and owns, a fresh window
		}
		c.mu.Unlock()
		select {
		case <-w.done:
			return w.answer(slot)
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
	w := &cwindow{keys: []uint64{key}, done: make(chan struct{})}
	if c.maxBatch > 1 {
		c.cur = w
	}
	inflight := c.tail
	c.owners.Add(1)
	c.mu.Unlock()
	if inflight != nil {
		<-inflight // company can only arrive while there is something to wait for
	}
	c.mu.Lock()
	if c.cur == w {
		c.cur = nil // seal: requests arriving during the flush open a fresh window
	}
	c.tail = w.done
	c.mu.Unlock()
	c.flushWindow(w)
	c.owners.Done()
	return w.answer(0)
}

// flushWindow answers a sealed window and wakes its joiners.
func (c *Coalescer) flushWindow(w *cwindow) {
	n := len(w.keys)
	w.vals = make([]uint64, n)
	w.found = make([]bool, n)
	w.err = c.flush(w.keys, w.vals, w.found)
	close(w.done)
	c.windows.Add(1)
	c.keys.Add(int64(n))
	if n >= c.maxBatch {
		c.capacityFlushes.Add(1)
	}
	if n == 1 {
		c.loneFlushes.Add(1)
	}
}

// Close rejects all later requests with ErrShutdown and returns once
// every window already open has been flushed by its owner: in-flight
// waiters get real answers, no flush starts after it. It is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.owners.Wait()
}

// Stats snapshots the counters.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{
		Windows:         c.windows.Load(),
		Keys:            c.keys.Load(),
		CapacityFlushes: c.capacityFlushes.Load(),
		LoneFlushes:     c.loneFlushes.Load(),
		Rejected:        c.rejected.Load(),
	}
}
