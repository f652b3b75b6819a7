package lsm

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondbloom/internal/fault"
)

// durableOpts is the small-geometry durable configuration the tests
// share: tiny memtables and segments so flushes, rotations, and
// checkpoints all fire within a few dozen operations.
func durableOpts(d Durability, fs fault.FS) Options {
	return Options{
		MemtableSize:    8,
		Policy:          PolicyBloom,
		Durability:      d,
		FS:              fs,
		WALSegmentBytes: 256,
	}
}

// TestNewStoreRejectsDurability: durable stores need a directory.
func TestNewStoreRejectsDurability(t *testing.T) {
	if _, err := NewStore(Options{Durability: DurabilityGroup}); err == nil ||
		!strings.Contains(err.Error(), "OpenStore") {
		t.Fatalf("NewStore with Durability: %v", err)
	}
}

// TestDurableBootstrapReplay: a fresh durable store's acknowledged
// writes survive an abandoned process (no Close, no Save) via the log
// alone — even before the first checkpoint exists.
func TestDurableBootstrapReplay(t *testing.T) {
	fs := fault.NewCrashFS(1)
	s, err := OpenStore("db", durableOpts(DurabilityGroup, fs))
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	for k := uint64(1); k <= 5; k++ { // below the flush trigger: WAL only
		s.Put(k, k*100)
	}
	// Abandon the store (simulated process exit without Close); the
	// recovered image holds only what was made durable.
	r, err := OpenStore("db", durableOpts(DurabilityGroup, fs.Recover()))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for k := uint64(1); k <= 5; k++ {
		if v, ok := r.Get(k); !ok || v != k*100 {
			t.Fatalf("key %d after replay = %d, %v", k, v, ok)
		}
	}
	if st := r.WAL().Stats(); st.Replayed == 0 {
		t.Fatal("reopen did not replay the log")
	}
}

// TestDurableFlushCheckpoint: flushes checkpoint automatically, retire
// covered segments, and the reopened store is exact — including
// tombstones.
func TestDurableFlushCheckpoint(t *testing.T) {
	fs := fault.NewCrashFS(2)
	s, err := OpenStore("db", durableOpts(DurabilityGroup, fs))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 100; k++ {
		s.Put(k, k)
	}
	for k := uint64(1); k <= 100; k += 3 {
		s.Delete(k)
	}
	if st := s.WAL().Stats(); st.Retired == 0 {
		t.Fatalf("no segments retired by checkpoints: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenStore("db", durableOpts(DurabilityGroup, fs.Recover()))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for k := uint64(1); k <= 100; k++ {
		v, ok := r.Get(k)
		if k%3 == 1 {
			if ok {
				t.Fatalf("deleted key %d resurrected with %d", k, v)
			}
		} else if !ok || v != k {
			t.Fatalf("key %d = %d, %v", k, v, ok)
		}
	}
	// A clean Close checkpointed everything: replay had nothing to do.
	if st := r.WAL().Stats(); st.Replayed != 0 {
		t.Fatalf("clean shutdown replayed %d ops", st.Replayed)
	}
}

// TestDurableRefusesNone: a durable directory cannot be opened with
// DurabilityNone — that would silently drop the log.
func TestDurableRefusesNone(t *testing.T) {
	fs := fault.NewCrashFS(3)
	s, err := OpenStore("db", durableOpts(DurabilityAlways, fs))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		s.Put(k, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore("db", Options{FS: fs}); err == nil ||
		!strings.Contains(err.Error(), "Durability") {
		t.Fatalf("DurabilityNone open of durable dir: %v", err)
	}
}

// TestDurableSaveElsewhere: Save to a foreign directory writes a
// detached snapshot that opens as a plain store.
func TestDurableSaveElsewhere(t *testing.T) {
	fs := fault.NewCrashFS(4)
	s, err := OpenStore("db", durableOpts(DurabilityGroup, fs))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 30; k++ {
		s.Put(k, k+7)
	}
	if err := s.Save("snap"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap, err := OpenStore("snap", Options{FS: fs})
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	for k := uint64(1); k <= 30; k++ {
		if v, ok := snap.Get(k); !ok || v != k+7 {
			t.Fatalf("snapshot key %d = %d, %v", k, v, ok)
		}
	}
}

// TestDurableOwnDirSaveIsCheckpoint: Save into the store's own
// directory routes through Checkpoint and keeps the WAL consistent.
func TestDurableOwnDirSaveIsCheckpoint(t *testing.T) {
	fs := fault.NewCrashFS(5)
	s, err := OpenStore("db", durableOpts(DurabilityGroup, fs))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5; k++ {
		s.Put(k, k)
	}
	if err := s.Save("db"); err != nil {
		t.Fatalf("Save(own dir): %v", err)
	}
	// The checkpoint folded the memtable: replay-on-reopen is empty.
	r, err := OpenStore("db", durableOpts(DurabilityGroup, fs.Recover()))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.WAL().Stats(); st.Replayed != 0 {
		t.Fatalf("checkpointed store replayed %d ops", st.Replayed)
	}
	for k := uint64(1); k <= 5; k++ {
		if v, ok := r.Get(k); !ok || v != k {
			t.Fatalf("key %d = %d, %v", k, v, ok)
		}
	}
}

// TestDurableBackgroundConcurrent: a Background durable store under
// concurrent writers acknowledges every Put durably; after Close and
// reopen nothing acknowledged is missing. Run with -race.
func TestDurableBackgroundConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		MemtableSize: 64,
		Policy:       PolicyBloom,
		Background:   true,
		Durability:   DurabilityGroup,
	}
	s, err := OpenStore(filepath.Join(dir, "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := uint64(w*perWriter + i + 1)
				s.Put(k, k*3)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenStore(filepath.Join(dir, "db"), opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for k := uint64(1); k <= writers*perWriter; k++ {
		if v, ok := r.Get(k); !ok || v != k*3 {
			t.Fatalf("acknowledged key %d lost (= %d, %v)", k, v, ok)
		}
	}
}

// TestDurableMapletPolicy: the maplet policy works durably — the
// global index is checkpointed with the manifest and replayed writes
// land in the memtable above it.
func TestDurableMapletPolicy(t *testing.T) {
	fs := fault.NewCrashFS(6)
	opts := durableOpts(DurabilityGroup, fs)
	opts.Policy = PolicyMaplet
	s, err := OpenStore("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 60; k++ {
		s.Put(k, k^0xABCD)
	}
	r, err := OpenStore("db", opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for k := uint64(1); k <= 60; k++ {
		if v, ok := r.Get(k); !ok || v != k^0xABCD {
			t.Fatalf("key %d = %d, %v", k, v, ok)
		}
	}
}

// TestDurableApplyBatch: one Apply batch is logged as one record and
// survives as a unit.
func TestDurableApplyBatch(t *testing.T) {
	fs := fault.NewCrashFS(7)
	s, err := OpenStore("db", durableOpts(DurabilityGroup, fs))
	if err != nil {
		t.Fatal(err)
	}
	batch := []Entry{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 3, Tombstone: true}}
	if err := s.Apply(batch...); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	r, err := OpenStore("db", durableOpts(DurabilityGroup, fs.Recover()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
	if v, ok := r.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d, %v", v, ok)
	}
	if _, ok := r.Get(3); ok {
		t.Fatal("tombstoned key 3 present")
	}
}

// TestCheckpointKeepsReferencedRetiredRuns: a run retired by a
// concurrent flush/compaction AFTER a checkpoint pinned its snapshot
// is still referenced by that checkpoint's manifest, so the
// checkpoint must neither recycle its id nor forget its file — only a
// later checkpoint that commits without the run may. (Regression: the
// checkpoint used to drain the whole deferred-retirement list, so a
// reused id's file was skipped by the next checkpoint and the
// manifest pointed at stale data.)
func TestCheckpointKeepsReferencedRetiredRuns(t *testing.T) {
	fs := fault.NewCrashFS(8)
	s, err := OpenStore("db", durableOpts(DurabilityGroup, fs))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 40; k++ { // several flushes + checkpoints
		s.Put(k, k)
	}
	v := s.view.Load()
	var live *run
	for _, level := range v.levels {
		if len(level) > 0 {
			live = level[0]
			break
		}
	}
	if live == nil {
		t.Fatal("no runs after 40 puts")
	}
	// Put `live` on the retired list while the view — and therefore
	// the manifest about to be written — still references it.
	s.idMu.Lock()
	s.retired = append(s.retired, live)
	s.idMu.Unlock()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.idMu.Lock()
	for _, id := range s.freeIDs {
		if id == live.id {
			t.Fatalf("id %d recycled while the manifest still references run %d", id, live.id)
		}
	}
	s.idMu.Unlock()
	if _, ok := s.persisted[live.id]; !ok {
		t.Fatalf("run %d dropped from the persisted set while referenced", live.id)
	}
	s.idMu.Lock()
	kept := false
	remaining := s.retired[:0]
	for _, r := range s.retired {
		if r == live {
			kept = true
		} else {
			remaining = append(remaining, r)
		}
	}
	s.retired = remaining // undo the simulation before Close
	s.idMu.Unlock()
	if !kept {
		t.Fatal("referenced retired run left the deferred list at the checkpoint that still references it")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenStore("db", durableOpts(DurabilityGroup, fs.Recover()))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for k := uint64(1); k <= 40; k++ {
		if v, ok := r.Get(k); !ok || v != k {
			t.Fatalf("key %d = %d, %v", k, v, ok)
		}
	}
}

// TestDurableConcurrentCheckpoints: explicit checkpoints racing
// concurrent writers and the background engine never lose an
// acknowledged write across close + reopen. One round catches a
// checkpoint that frees the id of a run created after its pin in a
// minority of runs (the next checkpoint then writes that run under the
// id, the compaction's output takes it, and the manifest names a file
// holding the wrong run), so the scenario repeats. Run with -race.
func TestDurableConcurrentCheckpoints(t *testing.T) {
	root := t.TempDir()
	opts := Options{
		MemtableSize: 16,
		Policy:       PolicyMaplet,
		Background:   true,
		Durability:   DurabilityGroup,
	}
	for round := 0; round < 50; round++ {
		dir := filepath.Join(root, fmt.Sprint(round))
		s, err := OpenStore(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		const writers, perWriter = 3, 150
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					k := uint64(w*perWriter + i + 1)
					s.Put(k, k*7)
				}
			}(w)
		}
		ckErrs := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Checkpoint(); err != nil {
					ckErrs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(ckErrs)
		for err := range ckErrs {
			t.Fatalf("round %d: concurrent Checkpoint: %v", round, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		r, err := OpenStore(dir, opts)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		for k := uint64(1); k <= writers*perWriter; k++ {
			if v, ok := r.Get(k); !ok || v != k*7 {
				t.Fatalf("round %d: acknowledged key %d lost (= %d, %v)", round, k, v, ok)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryReturnsRetiredRunIDs crashes a durable maplet store
// after every few dozen writes and recovers it, 40 times. A checkpoint
// must record as free the ids of the retired runs it releases, or each
// recovery loses them for good and the store runs out of its 2^w ids
// (at the width these options derive, after some 30 crashes).
func TestRecoveryReturnsRetiredRunIDs(t *testing.T) {
	fs := fault.NewCrashFS(9)
	opts := durableOpts(DurabilityGroup, fs)
	opts.Policy, opts.MemtableSize = PolicyMaplet, 16
	k := uint64(1)
	for crash := 0; crash < 40; crash++ {
		s, err := OpenStore("db", opts)
		if err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		s.idMu.Lock()
		held := s.nextID - uint64(len(s.freeIDs))
		s.idMu.Unlock()
		if bound := mapletTreeIDs(&s.opts) + uint64(s.opts.L0RunBudget); held > bound {
			t.Fatalf("recovered from crash %d holding %d run ids, bound %d", crash, held, bound)
		}
		for i := 0; i < 40; i++ {
			s.Put(k%500, k)
			k++
		}
		fs = fs.Recover()
		opts.FS = fs
	}
}

// TestSaveElsewhereBesideCheckpoints saves a durable Background maplet
// store into fresh directories in a loop beside writers, the engine's
// flushes and compactions, and a Checkpoint loop. Each image must
// reopen with no free id naming one of its runs and must hold every
// key acknowledged before its Save began.
func TestSaveElsewhereBesideCheckpoints(t *testing.T) {
	root := t.TempDir()
	opts := Options{
		MemtableSize: 16,
		Policy:       PolicyMaplet,
		Background:   true,
		Durability:   DurabilityGroup,
	}
	s, err := OpenStore(filepath.Join(root, "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 3, 400
	var acked [writers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := uint64(w*perWriter + i + 1)
				s.Put(k, k*7)
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}
	var done atomic.Bool
	ckErr := make(chan error, 1)
	go func() {
		defer close(ckErr)
		for !done.Load() {
			if err := s.Checkpoint(); err != nil {
				ckErr <- err
				return
			}
		}
	}()
	writing := make(chan struct{})
	go func() {
		wg.Wait()
		close(writing)
	}()
	for i, last := 0, false; !last; i++ {
		select {
		case <-writing:
			last = true // one more image, of the finished store
		default:
		}
		var before [writers]int64
		for w := range before {
			before[w] = acked[w].Load()
		}
		dir := filepath.Join(root, fmt.Sprint("snap", i))
		if err := s.Save(dir); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		r, err := OpenStore(dir, Options{})
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		for _, id := range r.freeIDs {
			if _, live := r.runByID[id]; live {
				t.Fatalf("image %d: run id %d is live and free", i, id)
			}
		}
		for w, n := range before {
			for j := int64(0); j < n; j++ {
				k := uint64(w*perWriter) + uint64(j) + 1
				if v, ok := r.Get(k); !ok || v != k*7 {
					t.Fatalf("image %d: key %d, acknowledged before Save, reads %d, %v", i, k, v, ok)
				}
			}
		}
	}
	done.Store(true)
	if err := <-ckErr; err != nil {
		t.Fatalf("concurrent Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// blockingSyncFS holds every file Sync, while armed, until release is
// closed, and reports each held Sync on entered.
type blockingSyncFS struct {
	*fault.CrashFS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *blockingSyncFS) Create(name string) (fault.File, error) {
	f, err := b.CrashFS.Create(name)
	return blockingSyncFile{f, b}, err
}

func (b *blockingSyncFS) Append(name string) (fault.File, error) {
	f, err := b.CrashFS.Append(name)
	return blockingSyncFile{f, b}, err
}

type blockingSyncFile struct {
	fault.File
	fs *blockingSyncFS
}

func (f blockingSyncFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestAlwaysReadsDoNotWaitForFsync: under DurabilityAlways a writer's
// fsync runs outside the store's lock, so a Get answers while another
// writer's fsync is still in flight.
func TestAlwaysReadsDoNotWaitForFsync(t *testing.T) {
	fs := &blockingSyncFS{CrashFS: fault.NewCrashFS(3), entered: make(chan struct{}, 1), release: make(chan struct{})}
	opts := durableOpts(DurabilityAlways, fs)
	opts.MemtableSize = 1024 // no flush: the writer's one fsync is its record's
	s, err := OpenStore("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, 10)
	fs.armed.Store(true)
	put := make(chan struct{})
	go func() {
		s.Put(2, 20)
		close(put)
	}()
	<-fs.entered
	got := make(chan bool, 1)
	go func() {
		v, ok := s.Get(1)
		got <- ok && v == 10
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Error("Get(1) answered wrong while an fsync was held")
		}
	case <-time.After(2 * time.Second):
		t.Error("Get(1) waited for another writer's fsync")
	}
	fs.armed.Store(false)
	close(fs.release)
	<-put
	if v, ok := s.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) after the fsync = %d, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
