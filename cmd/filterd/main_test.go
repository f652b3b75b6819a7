package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/core"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/workload"
)

// TestBadFlagsReturnErrors pins that out-of-range flags come back as
// errors (main prints them and exits 1) instead of panicking.
func TestBadFlagsReturnErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "f.bbf")
	// An unwritable -portfile makes a serve that got past the filter
	// fail right after listening instead of serving forever.
	portfile := filepath.Join(dir, "missing", "port")
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
		want string
	}{
		{"build -bits 0", cmdBuild, []string{"-o", out, "-bits", "0"}, "bits per key"},
		{"serve -bits 0", cmdServe, []string{"-bits", "0", "-addr", "127.0.0.1:0", "-portfile", portfile}, "bits per key"},
		{"build -n -5", cmdBuild, []string{"-o", out, "-n", "-5"}, "negative"},
	} {
		err := tc.run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected build left %s behind (stat: %v)", out, err)
	}
}

// TestBuildMatchesScalarReference pins that `build -o` — streamed keys,
// batched inserts — writes exactly the bytes of a filter built by
// inserting Keys(n, seed) one at a time and saved with core.Save.
func TestBuildMatchesScalarReference(t *testing.T) {
	const n, seed = 100000, 9
	out := filepath.Join(t.TempDir(), "f.bbf")
	if err := cmdBuild([]string{"-o", out, "-n", "100000", "-bits", "12", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ref := bloom.NewBlocked(n+1, 12)
	for _, k := range workload.Keys(n, seed) {
		ref.Insert(k)
	}
	var want bytes.Buffer
	if _, err := core.Save(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("build -o wrote %d bytes that differ from the %d-byte scalar reference", len(got), want.Len())
	}
}

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
