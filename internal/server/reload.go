package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
)

// FilterSnapshot is one immutable generation of the serving filter.
// A request grabs the current snapshot once and uses it for all its
// keys, so a reload never splits a batch across two filters; old
// snapshots drain naturally as their in-flight requests finish.
type FilterSnapshot struct {
	Filter   core.Filter
	Gen      uint64 // monotonically increasing generation
	Path     string // source .bbf file ("" for the built-in filter)
	LoadedAt time.Time
	SizeBits int
}

// Mutable reports whether live inserts are allowed into this
// snapshot. Only the sharded wrapper is safe for concurrent
// Insert+Contains (each shard carries its own lock); a bare filter
// loaded from a .bbf serves read-only.
func (s *FilterSnapshot) Mutable() *concurrent.Sharded {
	sh, _ := s.Filter.(*concurrent.Sharded)
	return sh
}

// filterHandle hands the serving filter off atomically: readers Load a
// snapshot pointer, Reload publishes a new one. There is no lock on
// the read path.
type filterHandle struct {
	cur atomic.Pointer[FilterSnapshot]
}

func (h *filterHandle) load() *FilterSnapshot { return h.cur.Load() }

// install publishes f as the next generation and returns its snapshot.
func (h *filterHandle) install(f core.Filter, path string) *FilterSnapshot {
	gen := uint64(1)
	if prev := h.cur.Load(); prev != nil {
		gen = prev.Gen + 1
	}
	snap := &FilterSnapshot{
		Filter:   f,
		Gen:      gen,
		Path:     path,
		LoadedAt: time.Now(),
		SizeBits: f.SizeBits(),
	}
	h.cur.Store(snap)
	return snap
}

// LoadFilterFile reads exactly one persisted filter from a .bbf file
// via the core registry. The file is read whole, in one allocation of
// its size (see readFilterFile), and decoded in place. Trailing bytes
// after the filter's encoding are rejected with codec.ErrTrailing — a
// half-written or concatenated file must not load as a smaller valid
// filter — and an error reading the file is returned as it is.
func LoadFilterFile(path string) (core.Persistent, error) {
	data, err := readFilterFile(path)
	if err != nil {
		return nil, err
	}
	d := codec.NewDec(data)
	f, err := core.Load(d)
	if err != nil {
		return nil, fmt.Errorf("server: loading %s: %w", path, err)
	}
	if n := d.Remaining(); n != 0 {
		return nil, fmt.Errorf("server: loading %s: %w: %d after the filter frame", path, codec.ErrTrailing, n)
	}
	// The file's bytes are garbage now, but the collector last set its
	// heap goal while they and the decoded filter were both live — at
	// about twice the two, four times the filter. One collection here
	// resets the goal from the filter alone, so serving does not grow
	// the process to that size before the bytes are reclaimed. It is
	// cheap: the filter's words hold no pointers to mark.
	runtime.GC()
	return f, nil
}

// maxFilterFile bounds a .bbf file LoadFilterFile will read: one frame
// of the largest payload the codec accepts.
const maxFilterFile = codec.HeaderSize + codec.MaxPayload

// errNotRegular rejects a path that is not a regular file: a device or
// a pipe has no size to bound the read by, and /dev/zero never ends.
var errNotRegular = errors.New("not a regular file")

// readFilterFile returns the bytes of the .bbf file at path. The path
// may come from an /admin/reload request, so nothing is allocated for
// the file until it has shown it can be a filter: it must be a regular
// file of at most maxFilterFile bytes whose first frame header parses.
// Only then is its size allocated, once. One byte more is read than
// Stat reported, so a file that grew since then shows as trailing
// bytes and one that shrank as a truncated frame.
func readFilterFile(path string) ([]byte, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	st, err := file.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, &fs.PathError{Op: "load", Path: path, Err: errNotRegular}
	}
	size := st.Size()
	if size > maxFilterFile {
		return nil, &fs.PathError{Op: "load", Path: path,
			Err: fmt.Errorf("%d bytes is over the %d-byte limit", size, maxFilterFile)}
	}
	if size < codec.HeaderSize {
		return nil, fmt.Errorf("server: loading %s: %w: %d bytes, less than a frame header", path, codec.ErrTruncated, size)
	}
	var hdr [codec.HeaderSize]byte
	if _, err := io.ReadFull(file, hdr[:]); err != nil {
		return nil, err
	}
	if _, _, err := codec.ParseHeader(hdr[:]); err != nil {
		return nil, fmt.Errorf("server: loading %s: %w", path, err)
	}
	data := make([]byte, size+1)
	copy(data, hdr[:])
	n, err := io.ReadFull(file, data[codec.HeaderSize:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return data[:codec.HeaderSize+n], nil
}
