package bloom_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"beyondbloom/internal/core"
	"beyondbloom/internal/persisttest"
)

// TestGoldenBlockedAnswers loads the committed blocked .bbf fixtures
// (persisttest's 256 keys at 10 bits/key) and pins what they answer:
// every fixture key is present, and the false positives among 4096
// disjoint probes are exactly the listed indexes — the same on the
// scalar and batch paths. A kernel change that moves any probe
// position changes this set even when the FPR stays plausible.
func TestGoldenBlockedAnswers(t *testing.T) {
	all := persisttest.Keys(256+4096, 1)
	keys, probes := all[:256], all[256:]
	for _, tc := range []struct {
		name string
		fps  []int
	}{
		{"bloom.Blocked", []int{72, 386, 440, 548, 871, 1146, 1291, 1470, 1680, 1715, 1944, 2201,
			2255, 2506, 2544, 2605, 2734, 3053, 3162, 3311, 3352, 3803, 3991, 4039}},
		{"bloom.BlockedChoices", []int{50, 106, 128, 162, 201, 243, 268, 460, 558, 637, 700, 734,
			802, 826, 865, 960, 1132, 1137, 1140, 1195, 1383, 1393, 1629, 1660, 2116, 2118, 2156,
			2218, 2380, 2411, 2613, 2635, 2660, 2723, 2747, 2872, 2938, 2962, 3140, 3175, 3204,
			3232, 3425, 3436, 3450, 3622, 3736, 3738, 3981, 4006, 4066, 4085}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := os.Open(filepath.Join("..", "persisttest", "testdata", tc.name+".bbf"))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			f, err := core.Load(r)
			if err != nil {
				t.Fatal(err)
			}
			bf := f.(core.BatchFilter)
			found := make([]bool, len(keys))
			bf.ContainsBatch(keys, found)
			for i, k := range keys {
				if !found[i] || !f.Contains(k) {
					t.Fatalf("false negative for fixture key %d", i)
				}
			}
			out := make([]bool, len(probes))
			bf.ContainsBatch(probes, out)
			var fps []int
			for i, k := range probes {
				if out[i] != f.Contains(k) {
					t.Fatalf("probe %d: batch %v, scalar %v", i, out[i], !out[i])
				}
				if out[i] {
					fps = append(fps, i)
				}
			}
			if !slices.Equal(fps, tc.fps) {
				t.Fatalf("false positives at %v, want %v", fps, tc.fps)
			}
		})
	}
}
