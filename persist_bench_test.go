package beyondbloom

// Persistence codec micro-benchmarks. Each sub-benchmark encodes or
// decodes one filter type's full serialized state; b.SetBytes is the
// encoded frame length, so `go test -bench Persist` reports MB/s
// directly. Nothing records them: the committed persistence numbers are
// the served benchmark's core.load_mb_s and core.save_mb_s
// (`go run -C bench .`). -short shrinks the fixtures so the 1-iteration
// smoke run in scripts/check.sh stays cheap.

import (
	"bytes"
	"sync"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/persisttest"
)

const (
	persistBenchN      = 1 << 20
	persistBenchShortN = 1 << 12
)

// Fixture construction (multi-second at full size) happens once per
// process and is shared by the encode/decode sides.
var (
	persistBenchOnce sync.Once
	persistBenchFix  []persisttest.Fixture
	persistBenchEnc  map[string][]byte
	persistBenchErr  error
)

func persistBenchSetup(b *testing.B) ([]persisttest.Fixture, map[string][]byte) {
	b.Helper()
	persistBenchOnce.Do(func() {
		n := persistBenchN
		if testing.Short() {
			n = persistBenchShortN
		}
		persistBenchFix, persistBenchErr = persisttest.Fixtures(n)
		if persistBenchErr != nil {
			return
		}
		persistBenchEnc = make(map[string][]byte, len(persistBenchFix))
		for _, fx := range persistBenchFix {
			var buf bytes.Buffer
			if _, err := core.Save(&buf, fx.Filter); err != nil {
				persistBenchErr = err
				return
			}
			persistBenchEnc[fx.Name] = buf.Bytes()
		}
	})
	if persistBenchErr != nil {
		b.Fatal(persistBenchErr)
	}
	return persistBenchFix, persistBenchEnc
}

func BenchmarkPersistEncode(b *testing.B) {
	fixtures, enc := persistBenchSetup(b)
	for _, fx := range fixtures {
		fx := fx
		b.Run(fx.Name, func(b *testing.B) {
			var buf bytes.Buffer
			buf.Grow(len(enc[fx.Name]))
			b.SetBytes(int64(len(enc[fx.Name])))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := core.Save(&buf, fx.Filter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPersistDecode(b *testing.B) {
	fixtures, enc := persistBenchSetup(b)
	for _, fx := range fixtures {
		raw := enc[fx.Name]
		b.Run(fx.Name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Load(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
