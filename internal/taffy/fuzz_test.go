package taffy

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzTaffy drives a filter with a byte-coded op stream against an
// exact mirror set: inserts must never produce a false negative, growth
// must never stall an op, and periodic save/load must preserve every
// answer. The fuzzer owns the op mix, so it explores mid-round
// snapshots, probe-heavy phases, and degenerate key patterns.
func FuzzTaffy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251})
	f.Add(bytes.Repeat([]byte{1, 0}, 64))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := New(8, 1.0/64)
		if err != nil {
			t.Fatal(err)
		}
		mirror := map[uint64]bool{}
		key := func(i int) uint64 {
			// Derive a key from the next 8 bytes (zero-padded), so the
			// fuzzer controls clustering and duplicates.
			var b [8]byte
			copy(b[:], data[i:min(i+8, len(data))])
			return binary.LittleEndian.Uint64(b[:])
		}
		for i := 0; i < len(data); i++ {
			switch op := data[i]; {
			case op < 160: // insert
				k := key(i + 1)
				if err := fl.Insert(k); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				mirror[k] = true
			case op < 250: // probe
				k := key(i + 1)
				got := fl.Contains(k)
				if mirror[k] && !got {
					t.Fatalf("false negative for %#x (n=%d exps=%d migrating=%v)",
						k, fl.Len(), fl.Expansions(), fl.Migrating())
				}
			default: // round-trip
				var buf bytes.Buffer
				if _, err := fl.WriteTo(&buf); err != nil {
					t.Fatalf("WriteTo: %v", err)
				}
				var g Filter
				if _, err := g.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("ReadFrom: %v", err)
				}
				if g.Len() != fl.Len() || g.Expansions() != fl.Expansions() || g.Migrating() != fl.Migrating() {
					t.Fatal("round-trip changed counters")
				}
				fl = &g
			}
		}
		out := make([]bool, 1)
		for k := range mirror {
			fl.ContainsBatch([]uint64{k}, out)
			if !out[0] {
				t.Fatalf("batch false negative for %#x", k)
			}
		}
	})
}
