package main

import (
	"testing"

	"beyondbloom/internal/lsm"
)

// TestOpenStorePolicy pins which filter policy `serve -store` ends up
// with: a bare directory is bootstrapped with per-run Bloom filters,
// and a directory that already has a manifest — here a maplet store,
// for which any explicit policy would be rejected — keeps its own.
func TestOpenStorePolicy(t *testing.T) {
	bare := t.TempDir()
	s, err := openStore(bare, lsm.DurabilityBuffered)
	if err != nil {
		t.Fatalf("bare directory: %v", err)
	}
	for k := uint64(1); k <= 5000; k++ {
		s.Put(k, k)
	}
	s.Flush()
	if s.Runs() == 0 || s.FilterMemoryBits() == 0 {
		t.Errorf("bare directory: %d runs carry %d filter bits, want per-run filters", s.Runs(), s.FilterMemoryBits())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = openStore(bare, lsm.DurabilityBuffered); err != nil {
		t.Fatalf("reopening the bootstrapped directory: %v", err)
	}
	if v, ok := s.Get(4242); !ok || v != 4242 {
		t.Errorf("reopened store: Get(4242) = %d, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seeded := t.TempDir()
	m, err := lsm.NewStore(lsm.Options{Policy: lsm.PolicyMaplet})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5000; k++ {
		m.Put(k, k)
	}
	m.Flush()
	if err := m.Save(seeded); err != nil {
		t.Fatal(err)
	}
	if s, err = openStore(seeded, lsm.DurabilityNone); err != nil {
		t.Fatalf("maplet store: %v", err)
	}
	if v, ok := s.Get(4242); !ok || v != 4242 {
		t.Errorf("maplet store: Get(4242) = %d, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
