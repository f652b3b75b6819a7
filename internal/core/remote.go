package core

import "context"

// FallibleRemote is a Remote whose accesses can fail or be cancelled —
// the realistic model of the "dictionary on disk" (or over the network)
// that an adaptive filter fronts. Contains reports exact membership when
// err is nil; when err is non-nil the boolean is meaningless and the
// caller must degrade without compromising its own guarantees.
type FallibleRemote interface {
	Contains(ctx context.Context, key uint64) (bool, error)
}
