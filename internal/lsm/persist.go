package lsm

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"maps"
	"path/filepath"
	"slices"
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

// writeMapletImage frames the global maplet image as KindMapletRuns:
// the run-id width, then the maplet frame itself.
func writeMapletImage(w io.Writer, m *quotient.Maplet) error {
	_, err := codec.Encode(w, codec.KindMapletRuns, func(e *codec.Enc) error {
		e.U8(uint8(m.ValueBits()))
		_, err := m.WriteTo(e)
		return err
	})
	return err
}

// readMapletImage decodes a maplet image written by writeMapletImage,
// checking its values are as wide as the run ids it records. Images of
// the earlier layouts — v1 (a bare KindMaplet frame of 16-bit run ids)
// and v2 (KindMapletV2, run id and block offset) — fail with
// ErrVersion: their values need an address this store no longer keeps.
func readMapletImage(d *codec.Dec) (*quotient.Maplet, error) {
	kind, raw, err := codec.ReadRaw(d)
	if err != nil {
		return nil, err
	}
	switch kind {
	case codec.KindMapletRuns:
	case codec.KindMaplet, codec.KindMapletV2:
		return nil, fmt.Errorf("%w: lsm: maplet image kind %d holds block offsets or 16-bit run ids; rebuild the store",
			codec.ErrVersion, kind)
	default:
		return nil, fmt.Errorf("%w: lsm: maplet image frame kind %d, want %d",
			codec.ErrKind, kind, codec.KindMapletRuns)
	}
	m := &quotient.Maplet{}
	_, err = codec.Decode(codec.NewDec(raw), codec.KindMapletRuns, func(d *codec.Dec) error {
		runBits := uint(d.U8())
		if _, err := m.ReadFrom(d); err != nil {
			return err
		}
		if m.ValueBits() != runBits {
			return d.Corruptf("lsm: maplet value width %d disagrees with run-id width %d", m.ValueBits(), runBits)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
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

// snapshot is one instant of the store, pinned under mu: the view; the
// folded memtable (frozen memtables plus the active one, newest writer
// winning); the last assigned log sequence number, so every operation
// at or below watermark is contained in (v, mem); the run-id
// allocation state, whose pool also holds the ids of the retired runs v
// lacks, which release frees once the image commits, or a store
// recovered from the image would never hand them out again; how many
// runs the retired list held; and, under PolicyMaplet, the maplet
// image.
type snapshot struct {
	v         *view
	mem       map[uint64]Entry
	watermark uint64
	nextID    uint64
	freeIDs   []uint64
	retired   int
	maplet    []byte
}

// pin captures a snapshot between two engine cycles (cycleMu). Read
// under mu with the view, the pool names no run of v: an id comes back
// only once its run is out of every view published from then on
// (release). The maplet's read lock, taken under mu too, holds off the
// engine's edits until the image is encoded, so the image routes every
// key to a run of v.
func (s *Store) pin() (*snapshot, error) {
	s.cycleMu.Lock()
	s.mu.Lock()
	v := s.view.Load()
	sn := &snapshot{v: v, mem: make(map[uint64]Entry, len(s.mem)), watermark: s.lastLSN}
	for i := len(v.frozen) - 1; i >= 0; i-- { // oldest first
		maps.Copy(sn.mem, v.frozen[i].entries)
	}
	maps.Copy(sn.mem, s.mem) // the active memtable is newest
	s.idMu.Lock()
	sn.nextID, sn.freeIDs, sn.retired = s.nextID, slices.Clone(s.freeIDs), len(s.retired)
	for _, r := range s.retired {
		if !viewHasRun(v, r.id) {
			sn.freeIDs = append(sn.freeIDs, r.id)
		}
	}
	s.idMu.Unlock()
	mi := s.maplet
	if mi != nil {
		mi.mu.RLock()
		defer mi.mu.RUnlock()
	}
	s.mu.Unlock()
	s.cycleMu.Unlock()
	if mi != nil {
		var buf bytes.Buffer
		if err := writeMapletImage(&buf, mi.m); err != nil {
			return nil, err
		}
		sn.maplet = buf.Bytes()
	}
	return sn, nil
}

// Save persists the store's complete state into dir: the MANIFEST
// (structural options, I/O counters, memtable, level structure, free
// id pool, and — under PolicyMaplet — the global maplet), one .bbr
// data file per run, and one .bbf filter file per filtered run, through
// writeImage. Function-valued options (range-filter builders, fault
// injectors, retry policies) are not persisted — the caller passes them
// again to OpenStore.
//
// On a durable store, saving into the store's own directory is a
// checkpoint (see Checkpoint); saving elsewhere writes a detached
// snapshot that does not include the write-ahead log.
//
// Save is safe to call concurrently with queries, writes, and a
// background compaction: it pins one snapshot under the store mutex
// and writes that. Frozen memtables that have not flushed yet are
// folded into the saved memtable image (newest writer wins), so no
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
	sn, err := s.pin()
	if err != nil {
		return err
	}
	sn.watermark = 0 // a detached snapshot replays no log
	_, err = s.writeImage(fsys, dir, sn, nil, false)
	return err
}

// writeImage is the package's one write sequence: the files of every
// run of sn's view that skip does not hold, in id order (the crash
// sweeps count a workload's filesystem operations in a dry run, so
// their order must not vary), each crash-atomically; a directory sync,
// so the names are durable before a manifest names them; the MANIFEST,
// crash-atomically; a second directory sync. The manifest's rename is
// the commit point: a crash before it leaves the directory's previous
// image whole. durable marks a WAL checkpoint. It returns the view's
// runs in id order.
func (s *Store) writeImage(fsys fault.FS, dir string, sn *snapshot, skip map[uint64]bool, durable bool) ([]*run, error) {
	var runs []*run
	for _, level := range sn.v.levels {
		runs = append(runs, level...)
	}
	slices.SortFunc(runs, func(a, b *run) int { return cmp.Compare(a.id, b.id) })
	wrote := false
	for _, r := range runs {
		if _, ok := skip[r.id]; ok {
			continue
		}
		if err := saveRunFiles(fsys, dir, r); err != nil {
			return nil, err
		}
		wrote = true
	}
	if wrote {
		if err := fsys.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	manifest, err := s.encodeManifest(sn, durable)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(fsys, filepath.Join(dir, ManifestName), manifest); err != nil {
		return nil, err
	}
	return runs, fsys.SyncDir(dir)
}

// encodeManifest serializes the manifest frame for a pinned snapshot.
// durable marks WAL checkpoints: the watermark is then the LSN through
// which (view, mem) is complete, so replay applies only newer records.
// The frame kind is TypeLSMManifestV3: the durability fields extended
// the v1 layout mid-stream (v2), and the growable-run-filter flag
// extended v2 (v3) — each a distinct kind rather than a silent
// relayout. OpenStore still decodes v1 and v2 manifests (their missing
// fields are false/zero by construction), and an image from a format
// newer than all three fails with a clear kind error instead of a
// misparse.
func (s *Store) encodeManifest(sn *snapshot, durable bool) ([]byte, error) {
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
		e.U64(sn.nextID)
		e.U64s(sn.freeIDs)
		// Durability: whether this manifest is a WAL checkpoint, and the
		// replay watermark.
		e.Bool(durable)
		e.U64(sn.watermark)
		// Memtable, sorted by key for a deterministic encoding.
		memKeys := make([]uint64, 0, len(sn.mem))
		for k := range sn.mem {
			memKeys = append(memKeys, k)
		}
		sort.Slice(memKeys, func(i, j int) bool { return memKeys[i] < memKeys[j] })
		e.U64(uint64(len(memKeys)))
		for _, k := range memKeys {
			en := sn.mem[k]
			e.U64(en.Key)
			e.U64(en.Value)
			e.Bool(en.Tombstone)
		}
		// Level structure: run ids in order (newest first within a level).
		e.U64(uint64(len(sn.v.levels)))
		for _, level := range sn.v.levels {
			e.U64(uint64(len(level)))
			for _, r := range level {
				e.U64(r.id)
				e.Bool(r.filter != nil)
			}
		}
		// Global maplet (PolicyMaplet): nested frame, versioned
		// independently of the manifest (see writeMapletImage).
		e.Bool(sn.maplet != nil)
		_, err := e.Write(sn.maplet)
		return err
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
//  1. Pin a snapshot under mu — complete through its watermark LSN by
//     construction.
//  2. writeImage, skipping run files the directory holds already: runs
//     are immutable, and an id comes back only after step 5 deletes its
//     files, so a persisted file never goes stale. The manifest's
//     rename is the commit point: before it the old checkpoint + WAL
//     recover the store, after it the new one does.
//  3. Record the view's runs as persisted.
//  4. Advance the replay watermark.
//  5. Garbage-collect: delete run files the new manifest no longer
//     references and WAL segments at or below the watermark. A crash
//     here only leaves debris for OpenStore's sweep.
//  6. Release the runs retired before step 1's pin that the manifest
//     does not name (see release); the others stay retired until a
//     later checkpoint.
//
// Serialized by ckptMu; the snapshot pin is the only step that takes
// mu, so checkpoints run concurrently with writers and readers.
func (s *Store) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	sn, err := s.pin()
	if err != nil {
		return err
	}
	runs, err := s.writeImage(s.fs, s.dir, sn, s.persisted, true)
	if err != nil {
		return err
	}
	// Commit point passed: bookkeeping, then garbage collection.
	refs := make(map[uint64]bool, len(runs))
	for _, r := range runs {
		refs[r.id] = true
		s.persisted[r.id] = r.filter != nil
	}
	if sn.watermark > s.flushedLSN {
		s.flushedLSN = sn.watermark
	}
	stale := make([]uint64, 0, 4)
	for id := range s.persisted {
		if !refs[id] {
			stale = append(stale, id)
		}
	}
	slices.Sort(stale)
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
	s.release(sn.retired, refs)
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
	if d.Err() == nil && hasMaplet {
		maplet, err = readMapletImage(d)
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
		// The width follows from the manifest's options.
		if w := s.maplet.m.ValueBits(); maplet.ValueBits() != w {
			return nil, fmt.Errorf("%w: lsm: maplet image run-id width %d, the manifest's options derive %d",
				codec.ErrCorrupt, maplet.ValueBits(), w)
		}
		s.maplet = newMapletIndex(maplet)
	}
	if nextID >= s.idLimit {
		return nil, fmt.Errorf("%w: lsm: run ids up to %d outside the %d-id space", codec.ErrCorrupt, nextID, s.idLimit)
	}
	// Each id in 1..nextID names one run or one free slot at most: the
	// pool would otherwise hand out an id a run still holds.
	ids := slices.Clone(freeIDs)
	for _, level := range levelRuns {
		for _, mr := range level {
			ids = append(ids, mr.id)
		}
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id == 0 || id > nextID || i > 0 && id == ids[i-1] {
			return nil, fmt.Errorf("%w: lsm: run id %d named twice by the pool and the levels, or outside 1..%d", codec.ErrCorrupt, id, nextID)
		}
	}
	if numLevels > uint64(s.maxDepth) {
		return nil, fmt.Errorf("%w: lsm: %d levels, deeper than this maplet store's %d", codec.ErrCorrupt, numLevels, s.maxDepth)
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

// loadRunFiles reads one run's data file and its filter file when the
// manifest promises one, and rebuilds from the reloaded keys its radix
// start table and, when a builder is configured, its range filter.
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
	r.index()
	if rangeBuilder != nil && len(r.entries) > 0 {
		keys := make([]uint64, len(r.entries))
		for i, e := range r.entries {
			keys[i] = e.Key
		}
		r.rangeF = rangeBuilder(keys)
	}
	return r, nil
}
