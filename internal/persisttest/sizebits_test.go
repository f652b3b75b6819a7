package persisttest

import (
	"bytes"
	"testing"

	"beyondbloom/internal/core"
)

// maxOverheadBytes bounds the framing overhead of one encoded
// component: the outer frame header, the Spec, the scalar state
// fields, and the nested substrate frame headers together stay well
// under this. Anything beyond means SizeBits and the encoder disagree
// about what the filter's state is — accounting drift the benchmarks
// would silently inherit.
const maxOverheadBytes = 512

// TestSizeBitsMatchesEncoding cross-checks each filter's reported
// footprint against its actual encoded length: the encoding must not
// be smaller than SizeBits claims (state missing from the file) nor
// more than the per-component header allowance larger (state SizeBits
// fails to account for).
func TestSizeBitsMatchesEncoding(t *testing.T) {
	fixtures, err := Fixtures(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := core.Save(&buf, fx.Filter); err != nil {
				t.Fatal(err)
			}
			encodedBits := buf.Len() * 8
			sizeBits := fx.Filter.SizeBits()
			slackBits := 8 * maxOverheadBytes * fx.Components
			if encodedBits < sizeBits {
				t.Errorf("encoding is %d bits but SizeBits reports %d: state missing from the file",
					encodedBits, sizeBits)
			}
			if encodedBits > sizeBits+slackBits {
				t.Errorf("encoding is %d bits, SizeBits %d + %d overhead allowance: SizeBits undercounts state",
					encodedBits, sizeBits, slackBits)
			}
		})
	}
}
