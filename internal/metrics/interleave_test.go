package metrics

import (
	"slices"
	"testing"
	"time"
)

// fakeHost is a clock that only the ops advance: each call costs what
// the op says, so Interleave's arithmetic can be checked exactly.
type fakeHost struct {
	now   time.Duration
	order []string // which op started each timed run of calls
}

func (h *fakeHost) clock() time.Duration { return h.now }

// TestInterleaveScriptedRatios scripts A's cost slice by slice against
// a B that costs 1 ns. A 2 ns slice fits one call of each, so
// calibration takes the first call of each op and slice i the next:
// the ratios are the script, and their median and interquartile range
// are known exactly.
func TestInterleaveScriptedRatios(t *testing.T) {
	script := []float64{5, 1, 4, 2, 3, 9, 7, 6, 8} // sorted: 1..9
	h := &fakeHost{}
	calls := 0
	a := func() {
		cost := 3.0 // calibration
		if calls > 0 {
			cost = script[calls-1]
		}
		calls++
		h.order = append(h.order, "a")
		h.now += time.Duration(cost)
	}
	b := func() {
		h.order = append(h.order, "b")
		h.now += 1
	}
	ns := Interleave(len(script), 2, h.clock, a, b)
	if calls != len(script)+1 {
		t.Fatalf("A ran %d times, want one calibration call and one per slice", calls)
	}
	if !slices.Equal(ns[0], script) {
		t.Fatalf("A's slice times %v, want %v", ns[0], script)
	}
	if want := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}; !slices.Equal(ns[1], want) {
		t.Fatalf("B's slice times %v, want %v", ns[1], want)
	}
	// Slices alternate which op goes first: a b, b a, a b, ...
	got := h.order[2:8]
	if want := []string{"a", "b", "b", "a", "a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("call order %v, want %v", got, want)
	}
	// Ratios 1..9: quartiles by nearest rank are 3, 5 and 7.
	median, iqr := Ratio(ns[0], ns[1])
	if median != 5 || iqr != (7.0-3.0)/5 {
		t.Fatalf("Ratio = %v, IQR %v; want 5 and 0.8", median, iqr)
	}
}

// TestInterleaveCalibratesSlices checks that a slice holds about slice
// worth of calls of each op and that time per call comes out exact.
func TestInterleaveCalibratesSlices(t *testing.T) {
	h := &fakeHost{}
	a := func() { h.now += 3 }
	b := func() { h.now += 1 }
	const slices = 11
	ns := Interleave(slices, 100, h.clock, a, b)
	for i := 0; i < slices; i++ {
		if ns[0][i] != 3 || ns[1][i] != 1 {
			t.Fatalf("slice %d: %v and %v ns per call, want 3 and 1", i, ns[0][i], ns[1][i])
		}
	}
	// Calibration doubles to 64 calls (256 ns for both ops, past 2 x 100)
	// and scales back to 50: 11 slices of 50 calls of each cost 2200 ns.
	if calibration := time.Duration(4 * (1 + 2 + 4 + 8 + 16 + 32 + 64)); h.now != calibration+slices*50*4 {
		t.Fatalf("fake clock reads %v, want %v", h.now, calibration+slices*50*4)
	}
	if median, iqr := Ratio(ns[0], ns[1]); median != 3 || iqr != 0 {
		t.Fatalf("Ratio = %v, IQR %v; want 3 and 0", median, iqr)
	}
}

func TestQuartiles(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // 0..100, reversed
	}
	if q1, m, q3 := Quartiles(xs); q1 != 25 || m != 50 || q3 != 75 {
		t.Fatalf("Quartiles(0..100) = %v, %v, %v", q1, m, q3)
	}
	if q1, m, q3 := Quartiles([]float64{7}); q1 != 7 || m != 7 || q3 != 7 {
		t.Fatalf("Quartiles([7]) = %v, %v, %v", q1, m, q3)
	}
	if xs[0] != 100 {
		t.Fatal("Quartiles sorted its argument in place")
	}
}

var allocSink []byte

func TestAllocsPerOp(t *testing.T) {
	if got := AllocsPerOp(50, func() {}); got != 0 {
		t.Fatalf("empty op: %v allocs, want 0", got)
	}
	if got := AllocsPerOp(50, func() { allocSink = make([]byte, 64) }); got != 1 {
		t.Fatalf("one make per call: %v allocs, want 1", got)
	}
}
