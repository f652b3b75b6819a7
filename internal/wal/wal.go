// Package wal is the write-ahead log beneath the durable LSM store: an
// append-only sequence of mutation records on the internal/codec framed
// CRC-32C wire format, split across size-capped segment files. Every
// record carries contiguous log sequence numbers (LSNs), so replay can
// both restore exactly the acknowledged suffix of the write history and
// reject anything the log never produced — a record only counts if its
// frame checksum verifies AND its LSNs continue the sequence.
//
// # Durability modes
//
//	ModeGroup    (default) appends are buffered; Sync writes and fsyncs the
//	             whole pending batch once, so concurrent writers share
//	             fsyncs (group commit) while every acknowledged write is
//	             on stable storage.
//	ModeAlways   appends are buffered as in ModeGroup, but Sync writes
//	             and fsyncs one record per fsync: the naive fsync-per-op
//	             baseline.
//	ModeBuffered appends are written to the OS but never fsynced by
//	             Sync (rotation still syncs); a crash may lose the
//	             buffered tail. Acknowledgements promise ordering, not
//	             durability — the fast, weak end of the ablation.
//
// # Crash tolerance
//
// Segments are rotated sync-before-advance: the old segment is fsynced
// before the next is created, so only the final segment can ever hold a
// torn tail. Open scans every segment, verifies checksums and LSN
// continuity, truncates a torn or corrupt tail off the final segment
// (repair, not failure), and fails loudly on damage anywhere else.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/fault"
)

// Op is one logged mutation.
type Op struct {
	Key       uint64
	Value     uint64
	Tombstone bool
}

// Mode selects the durability contract (see the package comment).
type Mode int

const (
	// ModeGroup batches fsyncs across concurrent appends (group commit);
	// acknowledged writes are durable.
	ModeGroup Mode = iota
	// ModeAlways fsyncs every append before acknowledging it.
	ModeAlways
	// ModeBuffered writes without fsync; a crash may drop the tail.
	ModeBuffered
)

func (m Mode) String() string {
	switch m {
	case ModeGroup:
		return "group"
	case ModeAlways:
		return "always"
	case ModeBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure a Log.
type Options struct {
	// FS is the filesystem the log writes through (nil selects the real
	// OS disk). Crash tests substitute a fault.CrashFS.
	FS fault.FS
	// SegmentBytes caps a segment file; the log rotates to a fresh
	// segment when the next record would overflow it (default 1 MiB).
	SegmentBytes int
	// Mode selects the durability contract (default ModeGroup).
	Mode Mode
	// FloorLSN is the checkpoint watermark of the store opening the
	// log: LSNs at or below it are already durable elsewhere, so the
	// log never assigns them again — even when the segments' own tail
	// was lost in a crash.
	FloorLSN uint64
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// opBytes is the encoded size of one Op (key + value + flag byte).
const opBytes = 17

// segExt and segPrefix name segment files: wal-<firstLSN>.bbl. The
// number is an ordering key (zero-padded decimal); the LSNs inside the
// frames are authoritative.
const (
	segPrefix = "wal-"
	segExt    = ".bbl"
)

func segName(first uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, first, segExt) }

// Stats counts what the log has done. Syncs vs Ops is the group-commit
// ratio: how many operations each fsync amortized.
type Stats struct {
	Records     uint64 // records appended
	Ops         uint64 // individual operations appended
	Syncs       uint64 // fsyncs issued on segment files
	Rotations   uint64 // segment rotations
	BytesLogged uint64 // frame bytes written
	Replayed    uint64 // operations above the floor replayed at Open
	TornRepairs uint64 // torn/corrupt tails truncated at Open
	Retired     uint64 // segments deleted by Retire
}

// pendingFrame is one encoded record awaiting its flush.
type pendingFrame struct {
	data    []byte
	lastLSN uint64
}

// closedSeg is a finalized (rotated-away) segment awaiting retirement.
type closedSeg struct {
	name   string
	maxLSN uint64
}

// Log is a segmented write-ahead log. It is safe for concurrent use.
//
// Lock order: ioMu before mu, never the reverse. mu guards the LSN
// counters, the pending queue, stats and the sticky error; ioMu owns
// the file state (active handle, sizes, closed-segment list) and
// serializes all disk writes so frames land in LSN order.
type Log struct {
	dir  string
	opts Options
	fs   fault.FS

	mu      sync.Mutex
	lastLSN uint64 // last assigned
	written uint64 // last LSN handed to the OS
	durable uint64 // last LSN fsynced
	pending []pendingFrame
	err     error // sticky: the log is dead once any write fails
	closed  bool
	stats   Stats

	ioMu       sync.Mutex
	active     fault.File
	activeName string
	activeSize int
	activeLast uint64 // last LSN written to the active segment
	closedSegs []closedSeg
}

// Open opens (or creates) the log in dir, replaying every surviving
// record above Options.FloorLSN through fn in LSN order (records at or
// below the floor are covered by the caller's checkpoint and skipped).
// A torn or corrupt tail on the final segment is truncated off
// (counted in Stats.TornRepairs); corruption anywhere else fails with
// an error wrapping codec.ErrCorrupt.
func Open(dir string, opts Options, fn func(lsn uint64, op Op)) (*Log, error) {
	if opts.FS == nil {
		opts.FS = fault.Disk
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, lastLSN: opts.FloorLSN}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, name := range names {
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt) {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)

	prevLast := uint64(0)
	for i, name := range segs {
		path := filepath.Join(dir, name)
		data, err := l.fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		validLen, first, last, scanErr := ScanSegment(data, func(lsn uint64, op Op) error {
			if lsn > opts.FloorLSN {
				fn(lsn, op)
				l.stats.Replayed++
			}
			return nil
		})
		if scanErr != nil {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("wal: segment %s (not the last — no crash leaves a torn middle): %w", name, scanErr)
			}
			// Torn tail on the final segment: a crash artifact, not
			// corruption. Truncate the damage off and keep appending.
			if err := l.fs.Truncate(path, int64(validLen)); err != nil {
				return nil, fmt.Errorf("wal: repairing %s: %w", name, err)
			}
			data = data[:validLen]
			l.stats.TornRepairs++
		}
		if first != 0 && prevLast != 0 && first != prevLast+1 {
			return nil, fmt.Errorf("%w: wal: segment %s starts at LSN %d, want %d", codec.ErrCorrupt, name, first, prevLast+1)
		}
		if last != 0 {
			prevLast = last
		}
		if i == len(segs)-1 {
			l.activeName = path
			l.activeSize = len(data)
		} else {
			l.closedSegs = append(l.closedSegs, closedSeg{name: path, maxLSN: last})
		}
	}
	if prevLast > l.lastLSN {
		l.lastLSN = prevLast
	}
	l.written, l.durable = l.lastLSN, l.lastLSN
	// Seed the active segment's max-LSN tracker. Using lastLSN (which
	// includes the floor) rather than the segment's scanned content is
	// safe: the floor is durable elsewhere, so a Retire watermark always
	// covers it.
	l.activeLast = l.lastLSN

	if l.activeName == "" {
		// Fresh log: create the first segment and make its directory
		// entry durable before anything is acknowledged out of it.
		l.activeName = filepath.Join(dir, segName(l.lastLSN+1))
		f, err := l.fs.Create(l.activeName)
		if err != nil {
			return nil, err
		}
		l.active = f
		if err := l.fs.SyncDir(dir); err != nil {
			return nil, err
		}
	} else {
		f, err := l.fs.Append(l.activeName)
		if err != nil {
			return nil, err
		}
		l.active = f
	}
	return l, nil
}

// ScanSegment parses one segment image, invoking fn for every
// operation of every valid record in order. It stops at the first
// damaged frame and returns the byte length of the valid prefix, the
// first and last LSN seen (zero when none), and the error that stopped
// the scan (nil for a cleanly exhausted segment). Records must carry
// contiguous LSNs; a checksum-valid frame that breaks the sequence is
// reported as corruption, so replay can never invent history.
func ScanSegment(data []byte, fn func(lsn uint64, op Op) error) (validLen int, first, last uint64, err error) {
	off := 0
	for off < len(data) {
		rd := bytes.NewReader(data[off:])
		payload, ferr := codec.ReadFrame(rd, codec.KindWALRecord)
		if ferr != nil {
			return off, first, last, ferr
		}
		consumed := (len(data) - off) - rd.Len()
		d := codec.NewDec(payload)
		firstLSN := d.U64()
		count := d.U32()
		if d.Err() == nil && (count == 0 || uint64(count) > uint64(d.Remaining())/opBytes) {
			return off, first, last, d.Corruptf("wal: record claims %d ops in %d payload bytes", count, d.Remaining())
		}
		if d.Err() == nil && last != 0 && firstLSN != last+1 {
			return off, first, last, d.Corruptf("wal: record starts at LSN %d, want %d", firstLSN, last+1)
		}
		ops := make([]Op, count)
		for i := range ops {
			ops[i] = Op{Key: d.U64(), Value: d.U64(), Tombstone: d.Bool()}
		}
		if err := d.Finish(); err != nil {
			return off, first, last, err
		}
		for i, op := range ops {
			if err := fn(firstLSN+uint64(i), op); err != nil {
				return off, first, last, err
			}
		}
		if first == 0 {
			first = firstLSN
		}
		last = firstLSN + uint64(count) - 1
		off += consumed
	}
	return off, first, last, nil
}

// encodeRecord frames ops as one record starting at firstLSN.
func encodeRecord(firstLSN uint64, ops []Op) []byte {
	var e codec.Enc
	e.U64(firstLSN)
	e.U32(uint32(len(ops)))
	for _, op := range ops {
		e.U64(op.Key)
		e.U64(op.Value)
		e.Bool(op.Tombstone)
	}
	var buf bytes.Buffer
	if _, err := codec.WriteFrame(&buf, codec.KindWALRecord, e.Bytes()); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// Enqueue assigns the next LSNs to ops and stages their record. It
// performs no I/O in any mode — callers may hold their own locks — and
// returns the batch's last LSN, the Sync target that acknowledges it.
func (l *Log) Enqueue(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return l.LastLSN(), nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.deadLocked(); err != nil {
		return 0, err
	}
	first := l.lastLSN + 1
	frame := encodeRecord(first, ops)
	l.lastLSN = first + uint64(len(ops)) - 1
	l.pending = append(l.pending, pendingFrame{data: frame, lastLSN: l.lastLSN})
	l.stats.Records++
	l.stats.Ops += uint64(len(ops))
	return l.lastLSN, nil
}

// Sync is the acknowledgement barrier: it returns once every operation
// up to lsn is durable (ModeGroup/ModeAlways) or handed to the OS
// (ModeBuffered). Concurrent Sync calls share flushes: whichever
// caller wins the I/O lock writes and fsyncs the whole pending queue,
// and everyone whose LSN that covered returns without touching disk.
// In ModeAlways the winner writes and fsyncs one pending record per
// fsync instead, until lsn is acknowledged.
func (l *Log) Sync(lsn uint64) error {
	for {
		l.mu.Lock()
		if err := l.deadLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		if l.ackedLocked() >= lsn {
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()

		l.ioMu.Lock()
		l.mu.Lock()
		if err := l.deadLocked(); err != nil {
			l.mu.Unlock()
			l.ioMu.Unlock()
			return err
		}
		if l.ackedLocked() >= lsn {
			l.mu.Unlock()
			l.ioMu.Unlock()
			return nil
		}
		frames := l.pending
		l.pending = nil
		if l.opts.Mode == ModeAlways && len(frames) > 1 {
			frames, l.pending = frames[:1], frames[1:]
		}
		l.mu.Unlock()

		doSync := l.opts.Mode != ModeBuffered
		err := l.writeFrames(frames, doSync)

		l.mu.Lock()
		if err != nil {
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
			l.ioMu.Unlock()
			return err
		}
		if n := len(frames); n > 0 {
			l.written = frames[n-1].lastLSN
			if doSync {
				l.durable = l.written
			}
		}
		l.mu.Unlock()
		l.ioMu.Unlock()
	}
}

// Append stages ops and waits for their acknowledgement: Enqueue
// followed by Sync.
func (l *Log) Append(ops []Op) (uint64, error) {
	lsn, err := l.Enqueue(ops)
	if err != nil {
		return 0, err
	}
	return lsn, l.Sync(lsn)
}

// writeFrames writes frames to the active segment in order, rotating
// at the size cap. Callers hold ioMu. Rotation is sync-before-advance:
// the outgoing segment is fsynced before the new one is created, which
// is the invariant that confines torn tails to the final segment.
func (l *Log) writeFrames(frames []pendingFrame, doSync bool) error {
	for _, fr := range frames {
		if l.activeSize > 0 && l.activeSize+len(fr.data) > l.opts.SegmentBytes {
			if err := l.rotate(); err != nil {
				return err
			}
		}
		if _, err := l.active.Write(fr.data); err != nil {
			return err
		}
		l.activeSize += len(fr.data)
		l.activeLast = fr.lastLSN
		l.mu.Lock()
		l.stats.BytesLogged += uint64(len(fr.data))
		l.mu.Unlock()
	}
	if doSync && len(frames) > 0 {
		if err := l.active.Sync(); err != nil {
			return err
		}
		l.mu.Lock()
		l.stats.Syncs++
		l.mu.Unlock()
	}
	return nil
}

// rotate finalizes the active segment and opens the next one. Callers
// hold ioMu. The outgoing segment's max LSN is the last LSN actually
// written into it (the record triggering rotation lands entirely in
// the new segment), so Retire can drop it the moment a checkpoint
// covers its own contents; records carry contiguous LSNs, so the new
// segment's first record starts at activeLast+1, which names it.
func (l *Log) rotate() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.mu.Lock()
	l.stats.Syncs++
	l.stats.Rotations++
	l.mu.Unlock()
	l.closedSegs = append(l.closedSegs, closedSeg{name: l.activeName, maxLSN: l.activeLast})
	name := filepath.Join(l.dir, segName(l.activeLast+1))
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	l.active = f
	l.activeName = name
	l.activeSize = 0
	return nil
}

// Retire deletes closed segments whose every record is at or below
// watermark — they are fully covered by a durable checkpoint. The
// active segment always survives; covered records still inside it are
// skipped by replay instead.
func (l *Log) Retire(watermark uint64) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if err := l.deadLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	kept := l.closedSegs[:0]
	removed := 0
	var firstErr error
	for i, seg := range l.closedSegs {
		if firstErr == nil && seg.maxLSN <= watermark {
			if err := l.fs.Remove(seg.name); err != nil {
				firstErr = err
				kept = append(kept, l.closedSegs[i:]...)
				break
			}
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	l.closedSegs = kept
	if removed > 0 && firstErr == nil {
		firstErr = l.fs.SyncDir(l.dir)
	}
	l.mu.Lock()
	l.stats.Retired += uint64(removed)
	if firstErr != nil && l.err == nil {
		l.err = firstErr
	}
	l.mu.Unlock()
	return firstErr
}

// deadLocked reports the sticky failure state. Callers hold mu.
func (l *Log) deadLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// ackedLocked is the LSN through which appends count as acknowledged
// under the configured mode. Callers hold mu.
func (l *Log) ackedLocked() uint64 {
	if l.opts.Mode == ModeBuffered {
		return l.written
	}
	return l.durable
}

// LastLSN returns the last assigned LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// DurableLSN returns the last fsynced LSN.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Segments returns the number of live segment files (closed + active).
func (l *Log) Segments() int {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return len(l.closedSegs) + 1
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close flushes and fsyncs everything written — pending frames and,
// in ModeBuffered, bytes earlier Syncs handed to the OS without an
// fsync — then closes the active segment: a clean Close leaves no
// acknowledged tail volatile in any mode. The log is unusable
// afterwards.
func (l *Log) Close() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.err
	frames := l.pending
	l.pending = nil
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.writeFrames(frames, true); err != nil {
		return err
	}
	l.mu.Lock()
	if n := len(frames); n > 0 {
		l.written = frames[n-1].lastLSN
		l.durable = l.written
	}
	lag := l.written > l.durable
	l.mu.Unlock()
	if lag {
		// ModeBuffered with an empty pending queue: everything reached
		// the OS but the tail was never fsynced.
		if err := l.active.Sync(); err != nil {
			return err
		}
		l.mu.Lock()
		l.durable = l.written
		l.stats.Syncs++
		l.mu.Unlock()
	}
	return l.active.Close()
}
