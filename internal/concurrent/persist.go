package concurrent

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
)

func init() {
	// Sharded wrappers need a per-shard build function, so there is no
	// Spec-only builder; loading reconstructs the shards from the stream.
	core.Register[Sharded](core.TypeSharded, "concurrent.Sharded", nil)
}

// WriteTo serializes the wrapper as a small header frame (the Spec)
// followed by one sibling frame per shard — each shard filter's own
// self-delimiting encoding. Shards are encoded concurrently, each under
// its own read lock, and the buffers are written out in shard order.
// Every shard filter must itself implement core.Persistent.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	bufs := make([][]byte, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &s.shards[i]
			p, ok := sh.f.(core.Persistent)
			if !ok {
				errs[i] = fmt.Errorf("concurrent: shard %d filter %T is not persistent", i, sh.f)
				return
			}
			var buf bytes.Buffer
			sh.mu.RLock()
			_, errs[i] = p.WriteTo(&buf)
			sh.mu.RUnlock()
			bufs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total, err := core.EncodeFrame(w, s.spec, nil)
	if err != nil {
		return total, err
	}
	for _, b := range bufs {
		n, err := w.Write(b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadFrom restores a wrapper written by WriteTo into the receiver. The
// header frame fixes the shard count; the shard frames are then sliced
// off the stream (each is length-prefixed) and decoded concurrently via
// the registry. On error the receiver is left unchanged.
func (s *Sharded) ReadFrom(r io.Reader) (int64, error) {
	var hdr Sharded
	total, err := core.DecodeFrame(r, core.TypeSharded, &hdr, shardedShape, nil)
	if err != nil {
		return 0, err
	}
	n := int(hdr.mask + 1)
	raws := make([][]byte, n)
	for i := range raws {
		_, raw, err := codec.ReadRaw(r)
		if err != nil {
			return 0, fmt.Errorf("concurrent: shard %d: %w", i, err)
		}
		raws[i] = raw
		total += int64(len(raw))
	}
	shards := make([]shard, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := core.Load(codec.NewDec(raws[i]))
			if err != nil {
				errs[i] = fmt.Errorf("concurrent: shard %d: %w", i, err)
				return
			}
			mf, ok := f.(core.MutableFilter)
			if !ok {
				errs[i] = fmt.Errorf("%w: concurrent: shard %d decoded to non-mutable %T",
					codec.ErrCorrupt, i, f)
				return
			}
			shards[i].f = mf
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	s.spec = hdr.spec
	s.shards = shards
	s.mask = hdr.mask
	return total, nil
}

// shardedShape validates a wrapper's Spec and sets its routing mask; the
// shards follow the header frame.
func shardedShape(spec core.Spec) (*Sharded, error) {
	if spec.Type != core.TypeSharded || spec.LogShards > MaxLogShards {
		return nil, fmt.Errorf("concurrent: bad spec (type=%d logShards=%d)", spec.Type, spec.LogShards)
	}
	return &Sharded{spec: spec, mask: 1<<spec.LogShards - 1}, nil
}

var _ core.Persistent = (*Sharded)(nil)
