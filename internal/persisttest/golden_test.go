package persisttest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden .bbf files from current encoders")

// goldenN is the fixture size the golden files were generated with.
// Changing it (or anything that changes the fixtures' bytes) requires
// regenerating with -update — which is exactly the point: the files pin
// the version-1 wire format, and any unintended encoding change fails
// here before it ships as a silent format break.
const goldenN = 256

func goldenPath(name string) string {
	return filepath.Join("testdata", strings.ReplaceAll(name, "/", "_")+".bbf")
}

// TestGoldenFiles pins the wire format: every fixture must encode to
// byte-identical .bbf files checked into testdata, and the checked-in
// bytes must load into filters that still answer membership for the
// fixture keys.
func TestGoldenFiles(t *testing.T) {
	fixtures, err := Fixtures(goldenN)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := core.Save(&buf, fx.Filter); err != nil {
				t.Fatal(err)
			}
			path := goldenPath(fx.Name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("encoding of %s changed: %d bytes vs %d golden — the v1 wire format must stay stable (use -update only for deliberate, versioned changes)",
					fx.Name, buf.Len(), len(want))
			}
			loaded, err := core.Load(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("loading golden file: %v", err)
			}
			for _, k := range fx.Keys {
				if !loaded.Contains(k) {
					t.Fatalf("golden-loaded filter lost key %#x", k)
				}
			}
		})
	}
}

// TestRetiredInfiniImageRefused loads an image of the retired TypeID 24,
// the InfiniFilter that kept a list of entries per bucket (testdata
// holds the golden it wrote). Its kind is no longer registered, so the
// load must fail with an error wrapping ErrCorrupt, not a panic.
func TestRetiredInfiniImageRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "infini_type24.bbf"))
	if err != nil {
		t.Fatal(err)
	}
	if kind, _, err := codec.PeekKind(bytes.NewReader(old)); err != nil || kind != 24 {
		t.Fatalf("fixture kind %d (%v), want the retired 24", kind, err)
	}
	if _, err := core.Load(bytes.NewReader(old)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Load of a TypeID 24 image: %v, want an error wrapping codec.ErrCorrupt", err)
	}
}
