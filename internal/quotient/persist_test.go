package quotient

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/workload"
)

// TestLoadRejectsInconsistentTables hands the loader CRC-valid KindQTable
// frames whose metadata no mutation can produce. Each must fail with an
// error wrapping codec.ErrCorrupt: no panic, no hang.
func TestLoadRejectsInconsistentTables(t *testing.T) {
	faults := map[string]func(tb *table){
		"flipped continuation bit": func(tb *table) {
			for i := uint64(1); i < tb.slots; i++ {
				if !tb.isEmptySlot(i) && !tb.isEmptySlot(i-1) {
					tb.continuation.SetTo(int(i), !tb.continuation.Bit(int(i)))
					return
				}
			}
		},
		"every shifted bit set, no empty slot": func(tb *table) {
			for i := 0; i < int(tb.slots); i++ {
				tb.shifted.Set(i)
			}
		},
		"occupied bit with no run": func(tb *table) {
			for i := 0; i < int(tb.slots); i++ {
				if tb.shifted.Bit(i) && !tb.occupied.Bit(i) {
					tb.occupied.Set(i)
					return
				}
			}
		},
		// Lookups still resolve, but a left shift would move this run
		// past its home slot.
		"shifted bit on a run at home": func(tb *table) {
			for i := 0; i < int(tb.slots); i++ {
				if tb.occupied.Bit(i) && !tb.shifted.Bit(i) {
					tb.shifted.Set(i)
					return
				}
			}
		},
		"used disagrees with content": func(tb *table) { tb.used-- },
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			f := New(8, 8)
			for _, k := range workload.Keys(200, 5) {
				if err := f.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			fault(f.t)
			var buf bytes.Buffer
			if _, err := f.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := new(Filter).ReadFrom(&buf)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("load returned %v, want an error wrapping codec.ErrCorrupt", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("load hangs")
			}
		})
	}
}

// TestInfiniLoadRejectsBadCodes hands the InfiniFilter loader images
// whose table is consistent but whose codes or counters are not: a code
// of 0 has no length marker, a void count must match the codes of 1,
// and a run's codes must ascend. Each must fail with an error wrapping
// codec.ErrCorrupt.
func TestInfiniLoadRejectsBadCodes(t *testing.T) {
	// firstFull returns the first full slot that starts a run of at
	// least n slots.
	firstFull := func(f *Infini, n uint64) uint64 {
		for fq := uint64(0); fq < f.t.slots; fq++ {
			if s, m, ok := f.t.findRun(fq); ok && m >= n {
				return s
			}
		}
		t.Fatalf("no run of %d slots", n)
		return 0
	}
	faults := map[string]func(f *Infini){
		"code 0 in a full slot": func(f *Infini) { f.t.payload.Set(int(firstFull(f, 1)), 0) },
		"void count off by one": func(f *Infini) { f.voids++ },
		"a void the header does not count": func(f *Infini) {
			f.t.payload.Set(int(firstFull(f, 1)), 1)
		},
		"run out of order": func(f *Infini) {
			s := firstFull(f, 2)
			a, b := f.t.payload.Get(int(s)), f.t.payload.Get(int((s+1)&f.t.mask))
			f.t.payload.Set(int(s), max(a, b)+1)
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			f, err := NewInfini(4)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range workload.Keys(3000, 5) {
				if err := f.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			var good bytes.Buffer
			if _, err := f.WriteTo(&good); err != nil {
				t.Fatal(err)
			}
			if _, err := new(Infini).ReadFrom(&good); err != nil {
				t.Fatalf("the intact image does not load: %v", err)
			}
			fault(f)
			var buf bytes.Buffer
			if _, err := f.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := new(Infini).ReadFrom(&buf); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("load returned %v, want an error wrapping codec.ErrCorrupt", err)
			}
		})
	}
}
