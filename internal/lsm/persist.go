package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/wal"
)

// ManifestName is the store's root metadata file inside a saved
// directory. Each run stores its entries in run-<id>.bbr with its
// filter (when the policy builds one) next to it in run-<id>.bbf, so a
// run's data and its filter travel together the way an SSTable and its
// filter block do. Durable stores add wal-*.bbl log segments (see the
// wal package) alongside.
const ManifestName = "MANIFEST"

func runDataName(id uint64) string   { return fmt.Sprintf("run-%d.bbr", id) }
func runFilterName(id uint64) string { return fmt.Sprintf("run-%d.bbf", id) }

// writeTo serializes one run's entries as a TypeLSMRun frame.
func (r *run) writeTo(w io.Writer) (int64, error) {
	return codec.Encode(w, core.TypeLSMRun, func(e *codec.Enc) error {
		e.U64(r.id)
		e.U32(uint32(r.level))
		e.U64(uint64(len(r.entries)))
		for _, en := range r.entries {
			e.U64(en.Key)
			e.U64(en.Value)
			e.Bool(en.Tombstone)
		}
		return nil
	})
}

// entryBytes is the encoded size of one Entry (key + value + tombstone).
const entryBytes = 17

// testLegacyMapletImage, when set (tests only), substitutes a bare v1
// KindMaplet frame for the versioned image so the v1→v2 load path can
// be exercised end to end.
var testLegacyMapletImage *quotient.Maplet

// writeMapletImage frames the global maplet image. The current layout
// is KindMapletV2: the packed-value geometry (run-id and block-offset
// widths) followed by the maplet frame itself. v1 images — a bare
// KindMaplet frame whose values are run ids only — are still read (see
// readMapletImage) but never written.
func (s *Store) writeMapletImage(w io.Writer) error {
	if testLegacyMapletImage != nil {
		_, err := testLegacyMapletImage.WriteTo(w)
		return err
	}
	_, err := codec.Encode(w, codec.KindMapletV2, func(e *codec.Enc) error {
		e.U8(uint8(mapletRunBits))
		e.U8(uint8(s.mapOffBits))
		_, err := s.maplet.WriteTo(e)
		return err
	})
	return err
}

// readMapletImage decodes a maplet image written by writeMapletImage
// or by a pre-(run,offset) release, returning the maplet and the
// block-offset width its packed values use. A v2 frame carries its
// geometry. A v1 frame holds run-id-only values, which are widened in
// place to the packed layout with every offset set to the unknown
// sentinel — those entries resolve by whole-run search until
// compactions rewrite them with exact offsets (lazy backfill).
func readMapletImage(d *codec.Dec, memtableSize, sizeRatio int) (*quotient.Maplet, uint, error) {
	kind, raw, err := codec.ReadRaw(d)
	if err != nil {
		return nil, 0, err
	}
	switch kind {
	case codec.KindMaplet: // v1: run-id-only values
		m := &quotient.Maplet{}
		if _, err := m.ReadFrom(codec.NewDec(raw)); err != nil {
			return nil, 0, err
		}
		if m.ValueBits() != mapletRunBits {
			return nil, 0, fmt.Errorf("%w: lsm: v1 maplet image value width %d, want %d",
				codec.ErrCorrupt, m.ValueBits(), mapletRunBits)
		}
		offBits := mapletOffsetBits(memtableSize, sizeRatio)
		sentinel := uint64(1)<<offBits - 1
		wide, err := m.RemapValues(mapletRunBits+offBits, func(v uint64) uint64 {
			return v<<offBits | sentinel
		})
		if err != nil {
			return nil, 0, err
		}
		return wide, offBits, nil
	case codec.KindMapletV2:
		m := &quotient.Maplet{}
		var offBits uint
		_, err := codec.Decode(codec.NewDec(raw), codec.KindMapletV2, func(d *codec.Dec) error {
			runBits := uint(d.U8())
			offBits = uint(d.U8())
			if runBits != mapletRunBits || offBits < mapletMinOffsetBits || offBits > mapletMaxOffsetBits {
				return d.Corruptf("lsm: maplet image geometry run=%d off=%d out of range", runBits, offBits)
			}
			if _, err := m.ReadFrom(d); err != nil {
				return err
			}
			if m.ValueBits() != runBits+offBits {
				return d.Corruptf("lsm: maplet value width %d disagrees with geometry %d+%d", m.ValueBits(), runBits, offBits)
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		return m, offBits, nil
	default:
		return nil, 0, fmt.Errorf("%w: lsm: maplet image frame kind %d, want %d (v1) or %d (v2)",
			codec.ErrKind, kind, codec.KindMaplet, codec.KindMapletV2)
	}
}

// readRun decodes one TypeLSMRun frame, validating the sort invariant
// every lookup's binary search depends on.
func readRun(rd io.Reader) (*run, error) {
	r := &run{}
	_, err := codec.Decode(rd, core.TypeLSMRun, func(d *codec.Dec) error {
		r.id, r.level = d.U64(), int(d.U32())
		if n := d.U64(); d.Claim(n, entryBytes, "run entry") {
			r.entries = make([]Entry, n)
		}
		for i := range r.entries {
			r.entries[i] = Entry{Key: d.U64(), Value: d.U64(), Tombstone: d.Bool()}
			if i > 0 && r.entries[i-1].Key >= r.entries[i].Key {
				return d.Corruptf("lsm: run %d entries not strictly sorted at index %d", r.id, i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// manifestRun is one run's manifest record: its position in the level
// structure plus whether a filter file accompanies the data file.
type manifestRun struct {
	id        uint64
	hasFilter bool
}

// writeFileAtomic writes data to path crash-atomically: the bytes land
// in a temp file, are fsynced, and reach the final name by rename. A
// crash leaves either the old file or the new one, never a torn mix.
// The caller fsyncs the directory once after its batch of renames to
// make the names themselves durable.
func writeFileAtomic(fsys fault.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// pinSnapshot captures a consistent persistence image under the store
// mutex: the current view, the folded memtable (frozen memtables plus
// the active one, newest writer winning), and the last assigned log
// sequence number. Every operation with an LSN at or below the
// returned watermark is contained in (view, mem).
func (s *Store) pinSnapshot() (v *view, mem map[uint64]Entry, watermark uint64) {
	s.mu.Lock()
	v = s.view.Load()
	mem = make(map[uint64]Entry, len(s.mem))
	for i := len(v.frozen) - 1; i >= 0; i-- { // oldest first
		for k, e := range v.frozen[i].entries {
			mem[k] = e
		}
	}
	for k, e := range s.mem { // the active memtable is newest
		mem[k] = e
	}
	watermark = s.lastLSN
	s.mu.Unlock()
	return v, mem, watermark
}

// Save persists the store's complete state into dir: the MANIFEST
// (structural options, I/O counters, memtable, level structure, free
// id pool, and — under PolicyMaplet — the global maplet), one .bbr
// data file per run, and one .bbf filter file per filtered run. Every
// file is written crash-atomically (temp + fsync + rename + directory
// fsync), so a crash mid-Save can never corrupt an existing snapshot.
// Run files are encoded and written concurrently; they are independent
// sibling frames. Function-valued options (range-filter builders,
// fault injectors, retry policies) are not persisted — the caller
// passes them again to OpenStore.
//
// On a durable store, saving into the store's own directory is a
// checkpoint (see Checkpoint); saving elsewhere writes a detached
// snapshot that does not include the write-ahead log.
//
// Save is safe to call concurrently with queries, writes, and a
// background compaction: it pins one view under the store mutex and
// serializes that snapshot. Frozen memtables that have not flushed yet
// are folded into the saved memtable image (newest writer wins), so no
// committed entry is lost; the reopened store re-flushes them on its
// own schedule.
func (s *Store) Save(dir string) error {
	if s.wal != nil && filepath.Clean(dir) == filepath.Clean(s.dir) {
		return s.Checkpoint()
	}
	fsys := s.fs
	if fsys == nil {
		fsys = fault.Disk
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	v, mem, _ := s.pinSnapshot()
	s.idMu.Lock()
	nextID := s.nextID
	freeIDs := append([]uint64(nil), s.freeIDs...)
	s.idMu.Unlock()

	var runs []*run
	for _, level := range v.levels {
		runs = append(runs, level...)
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r *run) {
			defer wg.Done()
			errs[i] = saveRunFiles(fsys, dir, r)
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Run-file names durable before the manifest that references them.
	if len(runs) > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return err
		}
	}
	manifest, err := s.encodeManifest(v, mem, nextID, freeIDs, false, 0)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(fsys, filepath.Join(dir, ManifestName), manifest); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// encodeManifest serializes the manifest frame for a pinned snapshot.
// durable marks WAL checkpoints: watermark is then the LSN through
// which (view, mem) is complete, so replay applies only newer records.
// The frame kind is TypeLSMManifestV3: the durability fields extended
// the v1 layout mid-stream (v2), and the growable-run-filter flag
// extended v2 (v3) — each a distinct kind rather than a silent
// relayout. OpenStore still decodes v1 and v2 manifests (their missing
// fields are false/zero by construction), and an image from a format
// newer than all three fails with a clear kind error instead of a
// misparse.
func (s *Store) encodeManifest(v *view, mem map[uint64]Entry, nextID uint64, freeIDs []uint64, durable bool, watermark uint64) ([]byte, error) {
	var buf bytes.Buffer
	_, err := codec.Encode(&buf, core.TypeLSMManifestV3, func(e *codec.Enc) error {
		// Structural options: a reopened store must rebuild the exact same
		// level arithmetic and filter policy.
		e.U64(uint64(s.opts.MemtableSize))
		e.U64(uint64(s.opts.SizeRatio))
		e.U8(uint8(s.opts.Policy))
		e.F64(s.opts.BitsPerKey)
		e.F64(s.opts.MonkeyBaseFPR)
		e.U8(uint8(s.opts.Compaction))
		e.Bool(s.opts.RangeFilter != nil)
		e.Bool(false) // growable-run-filter flag: v3 layout, no longer set
		// Device and filter counters: a reopened store resumes accounting
		// where the saved one stopped, so experiments comparing the two see
		// identical I/O for identical workloads.
		c := s.dev.Counters()
		e.U64(uint64(c.Reads))
		e.U64(uint64(c.Writes))
		e.U64(uint64(c.FailedReads))
		e.U64(uint64(c.FailedWrites))
		e.U64(0) // unused counter slot, kept so the manifest layout does not change
		e.U64(uint64(c.ReplicaReads))
		e.U64(uint64(c.ReplicaWrites))
		e.U64(uint64(s.FilterProbes()))
		e.U64(uint64(s.FilterFallbacks()))
		// Run id allocation state.
		e.U64(nextID)
		e.U64s(freeIDs)
		// Durability: whether this manifest is a WAL checkpoint, and the
		// replay watermark.
		e.Bool(durable)
		e.U64(watermark)
		// Memtable, sorted by key for a deterministic encoding.
		memKeys := make([]uint64, 0, len(mem))
		for k := range mem {
			memKeys = append(memKeys, k)
		}
		sort.Slice(memKeys, func(i, j int) bool { return memKeys[i] < memKeys[j] })
		e.U64(uint64(len(memKeys)))
		for _, k := range memKeys {
			en := mem[k]
			e.U64(en.Key)
			e.U64(en.Value)
			e.Bool(en.Tombstone)
		}
		// Level structure: run ids in order (newest first within a level).
		e.U64(uint64(len(v.levels)))
		for _, level := range v.levels {
			e.U64(uint64(len(level)))
			for _, r := range level {
				e.U64(r.id)
				e.Bool(r.filter != nil)
			}
		}
		// Global maplet (PolicyMaplet): nested frame, versioned
		// independently of the manifest (see writeMapletImage).
		e.Bool(s.maplet != nil)
		if s.maplet == nil {
			return nil
		}
		return s.writeMapletImage(e)
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// saveRunFiles writes one run's data file and, when present, its
// filter file, each crash-atomically.
func saveRunFiles(fsys fault.FS, dir string, r *run) error {
	var buf bytes.Buffer
	if _, err := r.writeTo(&buf); err != nil {
		return err
	}
	if err := writeFileAtomic(fsys, filepath.Join(dir, runDataName(r.id)), buf.Bytes()); err != nil {
		return err
	}
	if r.filter == nil {
		return nil
	}
	p, ok := r.filter.(core.Persistent)
	if !ok {
		return fmt.Errorf("lsm: run %d filter %T is not persistent", r.id, r.filter)
	}
	buf.Reset()
	if _, err := core.Save(&buf, p); err != nil {
		return err
	}
	return writeFileAtomic(fsys, filepath.Join(dir, runFilterName(r.id)), buf.Bytes())
}

// Checkpoint forces a durable checkpoint of the store into its own
// directory: unpersisted run files and a fresh manifest land
// crash-atomically, then the WAL segments the manifest covers retire.
// Durable stores checkpoint automatically at every flush; an explicit
// call bounds replay work before a planned shutdown. It fails on a
// snapshot-only store (use Save).
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("lsm: Checkpoint requires a durable store (OpenStore with Options.Durability)")
	}
	return s.checkpoint()
}

// checkpoint writes one full-consistency checkpoint. The protocol, in
// crash-ordering terms:
//
//  1. Pin (view, folded memtable, watermark) under mu — complete
//     through the watermark LSN by construction.
//  2. Write run files the directory does not hold yet (temp + fsync +
//     rename), then fsync the directory. Runs are immutable and ids
//     recycle only after step 5 deletes stale files, so a persisted
//     file never goes stale.
//  3. Write the manifest the same way and fsync the directory. This
//     rename is the commit point: before it the old checkpoint + WAL
//     recover the store, after it the new one does.
//  4. Advance the replay watermark.
//  5. Garbage-collect: delete run files the new manifest no longer
//     references and WAL segments at or below the watermark. A crash
//     here only leaves debris for OpenStore's sweep.
//  6. Recycle retired run ids — but only those the committed manifest
//     does not reference. A run retired by a concurrent flush or
//     compaction after step 1's pin is still named by this manifest
//     (its file must survive, its id must stay out of circulation);
//     it stays on the deferred list until a later checkpoint commits
//     without it.
//
// Serialized by ckptMu; the snapshot pin is the only step that takes
// mu, so checkpoints run concurrently with writers and readers.
func (s *Store) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	v, mem, watermark := s.pinSnapshot()
	s.idMu.Lock()
	nextID := s.nextID
	freeIDs := append([]uint64(nil), s.freeIDs...)
	s.idMu.Unlock()

	refs := make(map[uint64]*run)
	ids := make([]uint64, 0, 16)
	for _, level := range v.levels {
		for _, r := range level {
			refs[r.id] = r
			ids = append(ids, r.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) // deterministic I/O order
	wrote := false
	for _, id := range ids {
		if _, ok := s.persisted[id]; ok {
			continue
		}
		if err := saveRunFiles(s.fs, s.dir, refs[id]); err != nil {
			return err
		}
		wrote = true
	}
	if wrote {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return err
		}
	}
	manifest, err := s.encodeManifest(v, mem, nextID, freeIDs, true, watermark)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(s.fs, filepath.Join(s.dir, ManifestName), manifest); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	// Commit point passed: bookkeeping, then garbage collection.
	for _, id := range ids {
		s.persisted[id] = refs[id].filter != nil
	}
	if watermark > s.flushedLSN {
		s.flushedLSN = watermark
	}
	stale := make([]uint64, 0, 4)
	for id := range s.persisted {
		if _, ok := refs[id]; !ok {
			stale = append(stale, id)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, id := range stale {
		if err := s.fs.Remove(filepath.Join(s.dir, runDataName(id))); err != nil {
			return err
		}
		if s.persisted[id] {
			if err := s.fs.Remove(filepath.Join(s.dir, runFilterName(id))); err != nil {
				return err
			}
		}
		delete(s.persisted, id)
	}
	if len(stale) > 0 {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return err
		}
	}
	if err := s.wal.Retire(s.flushedLSN); err != nil {
		return err
	}
	// Step 6: recycle retired runs the committed manifest no longer
	// references — their files are gone (deleted above, or never
	// written). Runs retired after the pin may still be referenced by
	// this very manifest, so they stay deferred.
	s.retMu.Lock()
	kept := s.retired[:0]
	var recyclable []*run
	for _, old := range s.retired {
		if _, referenced := refs[old.id]; referenced {
			kept = append(kept, old)
		} else {
			recyclable = append(recyclable, old)
		}
	}
	s.retired = kept
	s.retMu.Unlock()
	for _, old := range recyclable {
		s.recycleRun(old)
	}
	return nil
}

// OpenStore reopens a store saved by Save (or maintained by durable
// checkpoints). Structural options come from the manifest; any
// structural field the caller sets in opts must agree with it (a
// mismatched geometry would silently change level arithmetic).
// Function-valued options — the range-filter builder, fault injectors,
// the retry policy — are taken from opts, since functions cannot be
// persisted; range filters are rebuilt per run from the reloaded keys.
// Run files load concurrently. The reopened store's query behavior and
// I/O counters are identical to the saved store's: the same lookups
// cost the same reads.
//
// With Options.Durability set, OpenStore also recovers the write-ahead
// log: surviving segments replay into the memtable (torn tails are
// repaired, crash debris is swept), and an absent manifest bootstraps
// a fresh durable store in dir. A directory whose manifest came from a
// durable checkpoint refuses to open with DurabilityNone — silently
// ignoring its log would drop acknowledged writes.
func OpenStore(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = fault.Disk
	}
	want := opts.Durability
	raw, err := fsys.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if want != DurabilityNone && errors.Is(err, iofs.ErrNotExist) {
			return bootstrapDurable(dir, opts, fsys)
		}
		return nil, err
	}
	// The manifest kind doubles as the layout version: v1 (pre-WAL
	// releases) lacks the durability fields, v2 carries them, v3 adds
	// the growable-run-filter flag. Anything else is a foreign or future
	// format and is rejected loudly.
	kind, frame, err := codec.PeekKind(codec.NewDec(raw))
	if err != nil {
		return nil, err
	}
	if kind != core.TypeLSMManifest && kind != core.TypeLSMManifestV2 && kind != core.TypeLSMManifestV3 {
		return nil, fmt.Errorf("%w: lsm: manifest frame kind %d, want %d (v1), %d (v2) or %d (v3)",
			codec.ErrKind, kind, core.TypeLSMManifest, core.TypeLSMManifestV2, core.TypeLSMManifestV3)
	}
	payload, err := codec.ReadFrame(frame, kind)
	if err != nil {
		return nil, err
	}
	d := codec.NewDec(payload)
	memtableSize := int(d.U64())
	sizeRatio := int(d.U64())
	policy := FilterPolicy(d.U8())
	bitsPerKey := d.F64()
	monkeyBaseFPR := d.F64()
	compaction := CompactionPolicy(d.U8())
	hadRangeFilter := d.Bool()
	// The v3 layout adds the growable-run-filter flag of a removed
	// option. It is read and ignored: run files say what filter they
	// hold, and core.Load decodes taffy filters as well as Bloom ones.
	if kind == core.TypeLSMManifestV3 {
		d.Bool()
	}
	var counters [9]uint64
	for i := range counters {
		counters[i] = d.U64()
	}
	nextID := d.U64()
	freeIDs := d.U64s()
	// The durability fields exist only in the v2 layout; a v1 manifest
	// is by definition a snapshot-only image.
	durable, watermark := false, uint64(0)
	if kind != core.TypeLSMManifest {
		durable = d.Bool()
		watermark = d.U64()
	}
	memCount := d.U64()
	if !d.Claim(memCount, entryBytes, "memtable entry") {
		return nil, d.Err()
	}
	memtable := make(map[uint64]Entry, memCount)
	for i := uint64(0); i < memCount; i++ {
		en := Entry{Key: d.U64(), Value: d.U64(), Tombstone: d.Bool()}
		memtable[en.Key] = en
	}
	numLevels := d.U64()
	if !d.Claim(numLevels, 8, "level") {
		return nil, d.Err()
	}
	levelRuns := make([][]manifestRun, numLevels)
	totalRuns := 0
	for li := range levelRuns {
		n := d.U64()
		if !d.Claim(n, 9, "run") {
			return nil, d.Err()
		}
		levelRuns[li] = make([]manifestRun, n)
		for ri := range levelRuns[li] {
			levelRuns[li][ri] = manifestRun{id: d.U64(), hasFilter: d.Bool()}
			totalRuns++
		}
	}
	hasMaplet := d.Bool()
	var maplet *quotient.Maplet
	var mapOffBits uint
	if d.Err() == nil && hasMaplet {
		maplet, mapOffBits, err = readMapletImage(d, memtableSize, sizeRatio)
		if err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}

	// Structural validation: manifest values are authoritative; caller
	// overrides that disagree are configuration bugs, not corruption.
	if err := checkStructural(&opts, memtableSize, sizeRatio, policy, bitsPerKey, monkeyBaseFPR, compaction); err != nil {
		return nil, err
	}
	if (policy == PolicyMaplet) != hasMaplet {
		return nil, fmt.Errorf("%w: lsm: manifest policy %d but maplet presence %v", codec.ErrCorrupt, policy, hasMaplet)
	}
	if hadRangeFilter && opts.RangeFilter == nil {
		return nil, fmt.Errorf("lsm: store was saved with a range filter; pass Options.RangeFilter to OpenStore (builders cannot be persisted)")
	}
	if nextID >= 1<<16 {
		return nil, fmt.Errorf("%w: lsm: next run id %d out of the 16-bit id space", codec.ErrCorrupt, nextID)
	}
	if durable && want == DurabilityNone {
		return nil, fmt.Errorf("lsm: %s was written by a durable store; set Options.Durability to open it (its write-ahead log would be silently dropped otherwise)", dir)
	}

	opts.MemtableSize = memtableSize
	opts.SizeRatio = sizeRatio
	opts.Policy = policy
	opts.BitsPerKey = bitsPerKey
	opts.MonkeyBaseFPR = monkeyBaseFPR
	opts.Compaction = compaction
	// Build the store synchronously and install the loaded state before
	// starting any background engine, so the worker never races the load.
	wantBackground := opts.Background
	opts.Background = false
	opts.Durability = DurabilityNone
	s, err := NewStore(opts)
	if err != nil {
		return nil, err
	}
	if maplet != nil {
		s.maplet = newMapletIndex(maplet)
		// The image's offset geometry is authoritative — it must match
		// the packed values it carries, not what NewStore re-derived.
		s.mapOffBits = mapOffBits
		s.mapOffNone = 1<<mapOffBits - 1
	}
	s.mem = memtable
	s.nextID = nextID
	s.freeIDs = freeIDs
	s.dev.reads.Store(int64(counters[0]))
	s.dev.writes.Store(int64(counters[1]))
	s.dev.failedReads.Store(int64(counters[2]))
	s.dev.failedWrites.Store(int64(counters[3]))
	s.dev.replicaReads.Store(int64(counters[5]))
	s.dev.replicaWrite.Store(int64(counters[6]))
	s.filterProbes.Store(int64(counters[7]))
	s.filterFallbacks.Store(int64(counters[8]))

	// Load every run's files concurrently: each (data, filter) pair is
	// independent, so reopening a many-run store scales with cores.
	type slot struct {
		level int
		pos   int
		mr    manifestRun
	}
	slots := make([]slot, 0, totalRuns)
	for li, level := range levelRuns {
		for ri, mr := range level {
			slots = append(slots, slot{level: li, pos: ri, mr: mr})
		}
	}
	runs := make([]*run, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	for i, sl := range slots {
		wg.Add(1)
		go func(i int, sl slot) {
			defer wg.Done()
			runs[i], errs[i] = loadRunFiles(fsys, dir, sl.mr, sl.level, opts.RangeFilter)
		}(i, sl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.tree = make([][]*run, numLevels)
	for i, sl := range slots {
		r := runs[i]
		s.ensureLevel(sl.level)
		s.tree[sl.level] = append(s.tree[sl.level], r)
		if _, dup := s.runByID[r.id]; dup {
			return nil, fmt.Errorf("%w: lsm: run id %d appears twice in the manifest", codec.ErrCorrupt, r.id)
		}
		s.runByID[r.id] = r
	}
	// Publish the loaded tree as the initial view, then recover the log
	// and (only now) start the background engine if the caller asked for
	// one.
	s.mu.Lock()
	s.publishLocked(nil)
	s.mu.Unlock()
	if want != DurabilityNone {
		s.persisted = make(map[uint64]bool, totalRuns)
		for _, level := range levelRuns {
			for _, mr := range level {
				s.persisted[mr.id] = mr.hasFilter
			}
		}
		if err := s.attachWAL(dir, fsys, want, watermark, durable); err != nil {
			return nil, err
		}
	}
	if wantBackground {
		s.startBackground()
	}
	return s, nil
}

// bootstrapDurable starts a fresh durable store in an empty (or
// crash-interrupted pre-first-checkpoint) directory: no manifest yet,
// but any surviving WAL segments replay — a crash before the first
// checkpoint must not lose acknowledged writes.
func bootstrapDurable(dir string, opts Options, fsys fault.FS) (*Store, error) {
	want := opts.Durability
	wantBackground := opts.Background
	opts.Durability = DurabilityNone
	opts.Background = false
	s, err := NewStore(opts)
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := s.attachWAL(dir, fsys, want, 0, true); err != nil {
		return nil, err
	}
	if wantBackground {
		s.startBackground()
	}
	return s, nil
}

// attachWAL turns a freshly constructed store durable: it sweeps crash
// debris out of dir, opens the log (repairing any torn tail), and
// replays every record above the checkpoint watermark into the
// memtable. hadWAL distinguishes directories where segments are
// legitimate from snapshot-only directories where they would be
// ambiguous.
func (s *Store) attachWAL(dir string, fsys fault.FS, want Durability, watermark uint64, hadWAL bool) error {
	s.dir, s.fs = dir, fsys
	s.opts.Durability = want
	s.deferRetire = true
	if s.persisted == nil {
		s.persisted = make(map[uint64]bool)
	}
	s.flushedLSN = watermark
	// Sweep crash debris: temp files and run files no checkpoint
	// references (a crash between a checkpoint's manifest commit and its
	// garbage collection leaves both; volatile removes can resurrect).
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if name == ManifestName {
			continue
		}
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".bbl") {
			if !hadWAL {
				return fmt.Errorf("lsm: %s holds WAL segments but its manifest is not a durable checkpoint; refusing to guess which is authoritative", dir)
			}
			continue
		}
		drop := strings.HasSuffix(name, ".tmp")
		if !drop {
			var id uint64
			if n, _ := fmt.Sscanf(name, "run-%d.bbr", &id); n == 1 && strings.HasSuffix(name, ".bbr") {
				_, keep := s.persisted[id]
				drop = !keep
			} else if n, _ := fmt.Sscanf(name, "run-%d.bbf", &id); n == 1 && strings.HasSuffix(name, ".bbf") {
				_, keep := s.persisted[id]
				drop = !keep
			}
		}
		if drop {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		if err := fsys.SyncDir(dir); err != nil {
			return err
		}
	}
	wl, err := wal.Open(dir, wal.Options{
		FS:           fsys,
		SegmentBytes: s.opts.WALSegmentBytes,
		Mode:         walMode(want),
		FloorLSN:     watermark,
	}, func(lsn uint64, op wal.Op) {
		// Open replays only records above the watermark (FloorLSN);
		// everything else is folded into the checkpoint image already.
		s.mem[op.Key] = Entry{Key: op.Key, Value: op.Value, Tombstone: op.Tombstone}
	})
	if err != nil {
		return err
	}
	s.wal = wl
	s.lastLSN = wl.LastLSN()
	return nil
}

// WAL exposes the store's write-ahead log (nil on snapshot-only
// stores) for stats and diagnostics.
func (s *Store) WAL() *wal.Log { return s.wal }

// checkStructural rejects caller-set structural options that disagree
// with the manifest.
func checkStructural(opts *Options, memtableSize, sizeRatio int, policy FilterPolicy, bitsPerKey, monkeyBaseFPR float64, compaction CompactionPolicy) error {
	if opts.MemtableSize != 0 && opts.MemtableSize != memtableSize {
		return fmt.Errorf("lsm: MemtableSize %d disagrees with saved store's %d", opts.MemtableSize, memtableSize)
	}
	if opts.SizeRatio != 0 && opts.SizeRatio != sizeRatio {
		return fmt.Errorf("lsm: SizeRatio %d disagrees with saved store's %d", opts.SizeRatio, sizeRatio)
	}
	if opts.Policy != PolicyNone && opts.Policy != policy {
		return fmt.Errorf("lsm: Policy %d disagrees with saved store's %d", opts.Policy, policy)
	}
	if opts.BitsPerKey != 0 && opts.BitsPerKey != bitsPerKey {
		return fmt.Errorf("lsm: BitsPerKey %v disagrees with saved store's %v", opts.BitsPerKey, bitsPerKey)
	}
	if opts.MonkeyBaseFPR != 0 && opts.MonkeyBaseFPR != monkeyBaseFPR {
		return fmt.Errorf("lsm: MonkeyBaseFPR %v disagrees with saved store's %v", opts.MonkeyBaseFPR, monkeyBaseFPR)
	}
	if opts.Compaction != Leveling && opts.Compaction != compaction {
		return fmt.Errorf("lsm: Compaction %d disagrees with saved store's %d", opts.Compaction, compaction)
	}
	return nil
}

// loadRunFiles reads one run's data file, its filter file when the
// manifest promises one, and rebuilds its range filter from the
// reloaded keys when a builder is configured.
func loadRunFiles(fsys fault.FS, dir string, mr manifestRun, level int, rangeBuilder RangeFilterBuilder) (*run, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, runDataName(mr.id)))
	if err != nil {
		return nil, fmt.Errorf("lsm: run %d: %w", mr.id, err)
	}
	r, err := readRun(codec.NewDec(raw))
	if err != nil {
		return nil, fmt.Errorf("lsm: run %d: %w", mr.id, err)
	}
	if r.id != mr.id {
		return nil, fmt.Errorf("%w: lsm: file %s holds run %d", codec.ErrCorrupt, runDataName(mr.id), r.id)
	}
	if r.level != level {
		return nil, fmt.Errorf("%w: lsm: run %d recorded at level %d but manifest places it at %d",
			codec.ErrCorrupt, r.id, r.level, level)
	}
	if mr.hasFilter {
		fraw, err := fsys.ReadFile(filepath.Join(dir, runFilterName(mr.id)))
		if err != nil {
			return nil, fmt.Errorf("lsm: run %d filter: %w", mr.id, err)
		}
		f, err := core.Load(codec.NewDec(fraw))
		if err != nil {
			return nil, fmt.Errorf("lsm: run %d filter: %w", mr.id, err)
		}
		r.filter = f
	}
	if rangeBuilder != nil && len(r.entries) > 0 {
		keys := make([]uint64, len(r.entries))
		for i, e := range r.entries {
			keys[i] = e.Key
		}
		r.rangeF = rangeBuilder(keys)
	}
	return r, nil
}
