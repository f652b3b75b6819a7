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
