package fault

import (
	"context"

	"beyondbloom/internal/core"
)

// FallibleSet wraps an exact Remote with injected faults, producing the
// unreliable backing store the adaptive-filter experiments need. Bit-flip
// outcomes surface as ErrCorrupt (detected by checksum), never as a
// silently wrong answer — the repair loop's no-false-negative guarantee
// depends on corruption being visible.
type FallibleSet struct {
	R  core.Remote
	In *Injector
}

// NewFallibleSet wraps r with the injector's fault schedule.
func NewFallibleSet(r core.Remote, in *Injector) *FallibleSet {
	return &FallibleSet{R: r, In: in}
}

// Contains reports membership, subject to injected faults.
func (f *FallibleSet) Contains(ctx context.Context, key uint64) (bool, error) {
	o := f.In.Next()
	if o.Err != nil {
		return false, o.Err
	}
	if o.FlipBit >= 0 {
		return false, ErrCorrupt
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return f.R.Contains(key), nil
}

var _ core.FallibleRemote = (*FallibleSet)(nil)
