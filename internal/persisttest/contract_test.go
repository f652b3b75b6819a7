package persisttest

import (
	"bytes"
	"math/rand"
	"testing"

	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/quotient"
)

// contractN is the fixture size the contract rows run at: enough keys
// for the longest fixed batch shape (1001) to be all distinct.
const contractN = 2000

// contractRows is the point-filter contract, one row per property. A
// row runs on every fixture applies accepts (every fixture when nil),
// each on fixtures of its own, so a row may mutate them freely.
var contractRows = []struct {
	name    string
	applies func(Fixture) bool
	check   func(*testing.T, Fixture)
}{
	{"no_false_negatives", nil, checkNoFalseNegatives},
	{"batch_matches_scalar", nil, func(t *testing.T, fx Fixture) {
		checkBatchMatchesScalar(t, fx.Filter, fx.Keys, Keys(4096, 99))
	}},
	{"insert_batch_matches_insert", mutable, checkInsertBatchMatchesInsert},
	{"load_then_insert", mutable, checkLoadThenInsert},
	{"batch_after_mutation", deletable, checkBatchAfterMutation},
	{"saturated", isQuotient, checkSaturatedQuotient},
	{"zero_allocs", nil, checkZeroAllocs},
}

// TestContract runs every contract row on every fixture it applies to.
// Round trips, golden files and corruption checks have tests of their
// own in this package.
func TestContract(t *testing.T) {
	for _, row := range contractRows {
		t.Run(row.name, func(t *testing.T) {
			fixtures, err := Fixtures(contractN)
			if err != nil {
				t.Fatal(err)
			}
			ran := 0
			for _, fx := range fixtures {
				if row.applies == nil || row.applies(fx) {
					t.Run(fx.Name, func(t *testing.T) { row.check(t, fx) })
					ran++
				}
			}
			if ran == 0 {
				t.Fatal("the row applies to no fixture")
			}
		})
	}
}

func mutable(fx Fixture) bool { return fx.New != nil }

func deletable(fx Fixture) bool {
	_, ok := fx.Filter.(core.DeletableFilter)
	return ok
}

func isQuotient(fx Fixture) bool {
	_, ok := fx.Filter.(*quotient.Filter)
	return ok
}

// checkNoFalseNegatives: every inserted key is found, scalar and
// batched, and a kind that counts its keys counts every one.
func checkNoFalseNegatives(t *testing.T, fx Fixture) {
	t.Helper()
	if l, ok := fx.Filter.(interface{ Len() int }); ok && l.Len() != len(fx.Keys) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(fx.Keys))
	}
	out := make([]bool, len(fx.Keys))
	core.ContainsBatch(fx.Filter, fx.Keys, out)
	for i, k := range fx.Keys {
		if !fx.Filter.Contains(k) || !out[i] {
			t.Fatalf("key %d (%#x) lost: Contains %v, ContainsBatch %v", i, k, fx.Filter.Contains(k), out[i])
		}
	}
}

// checkBatchMatchesScalar requires core.ContainsBatch to agree with
// Contains on adversarial batch shapes drawn from members and absent
// keys: nil and empty, odd lengths around the 256-key chunk, a
// duplicate-heavy batch and random mixed batches. Each batch is
// probed twice into an out slice longer than the batch, pre-filled
// all true and then all false, so an entry the batch leaves unwritten
// fails one of the two.
func checkBatchMatchesScalar(t *testing.T, f core.Filter, members, absent []uint64) {
	t.Helper()
	check := func(batch []uint64) {
		t.Helper()
		out := make([]bool, len(batch)+3)
		for _, stale := range []bool{true, false} {
			for i := range out {
				out[i] = stale
			}
			core.ContainsBatch(f, batch, out)
			for i, k := range batch {
				if want := f.Contains(k); out[i] != want {
					t.Fatalf("batch[%d] (key %#x) = %v, scalar = %v (batch len %d, out pre-filled %v)",
						i, k, out[i], want, len(batch), stale)
				}
			}
		}
	}
	check(nil)
	check([]uint64{})
	check(absent[:1])
	// Members and absent keys alternate, so every length mixes both.
	mixed := make([]uint64, 1001)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = members[i/2%len(members)]
		} else {
			mixed[i] = absent[i/2%len(absent)]
		}
	}
	for _, n := range []int{1, 3, 17, 255, 256, 257, 511, 1001} {
		check(mixed[:n])
	}
	dup := make([]uint64, 301) // one member and one absent key, alternating
	for i := range dup {
		dup[i] = mixed[i%2]
	}
	check(dup)
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		batch := make([]uint64, 1+rng.Intn(1500))
		for i := range batch {
			switch rng.Intn(3) {
			case 0:
				batch[i] = members[rng.Intn(len(members))]
			case 1:
				batch[i] = absent[rng.Intn(len(absent))]
			default:
				batch[i] = rng.Uint64()
			}
		}
		check(batch)
	}
}

// encode saves f and returns its bytes.
func encode(t *testing.T, f core.Persistent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkInsertBatchMatchesInsert holds core.InsertBatch to
// core.BatchInserter's promise: a twin fed the fixture keys in batches
// of uneven lengths (tails under and over a chunk) leaves the same
// state, byte for byte, as the scalar Insert loop that built Filter.
func checkInsertBatchMatchesInsert(t *testing.T, fx Fixture) {
	twin, err := fx.New()
	if err != nil {
		t.Fatal(err)
	}
	keys := fx.Keys
	for i := 0; len(keys) > 0; i++ {
		n := min([]int{1, 7, 300, 3, 256, 1001}[i%6], len(keys))
		if err := core.InsertBatch(twin.(core.MutableFilter), keys[:n]); err != nil {
			t.Fatal(err)
		}
		keys = keys[n:]
	}
	if !bytes.Equal(encode(t, twin), encode(t, fx.Filter)) {
		t.Fatal("batch-filled twin saves to other bytes than the scalar-filled filter")
	}
}

// checkLoadThenInsert requires a loaded filter to carry on like its
// source. The source takes as many further keys again, which drives
// every growable kind through another expansion and fills the
// fixed-capacity kinds past full. Every 100 of them it is saved and
// loaded, so loads land at many points of growth (mid-round, just
// after a doubling, full) and not only where the fixture stopped. Each
// loaded copy must save to the source's bytes at once, then take the
// next 100 keys alongside the source, refuse the same ones, and save
// to the same bytes again. Growth state that Save drops or Load resets
// shows up here even when it re-encodes to the source bytes. At the
// end the last loaded copy must still hold every key it accepted: a
// refused insert loses none.
func checkLoadThenInsert(t *testing.T, fx Fixture) {
	src := fx.Filter.(core.MutableFilter)
	further := Keys(len(fx.Keys), 2)
	accepted := append([]uint64(nil), fx.Keys...)
	var loaded core.Persistent
	for at := 0; at < len(further); at += 100 {
		saved := encode(t, fx.Filter)
		var err error
		if loaded, err = core.Load(bytes.NewReader(saved)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, loaded), saved) {
			t.Fatalf("loaded after %d further inserts: re-encoding differs from the source", at)
		}
		dst := loaded.(core.MutableFilter)
		for i, k := range further[at:min(at+100, len(further))] {
			e1, e2 := src.Insert(k), dst.Insert(k)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("further insert %d: source %v, loaded %v", at+i, e1, e2)
			}
			if e2 == nil {
				accepted = append(accepted, k)
			}
		}
		if !bytes.Equal(encode(t, fx.Filter), encode(t, loaded)) {
			t.Fatalf("loaded after %d further inserts, then given the next 100: saves to other bytes than its source", at)
		}
	}
	checkNoFalseNegatives(t, Fixture{Filter: loaded, Keys: accepted})
}

// checkBatchAfterMutation deletes a quarter of the keys and inserts
// fresh ones, then requires no false negatives among the survivors and
// the fresh keys, and batch ≡ scalar, so the batched path cannot go
// stale against mutation (victim caches, run shifts, tombstones).
func checkBatchAfterMutation(t *testing.T, fx Fixture) {
	f := fx.Filter.(core.DeletableFilter)
	q := len(fx.Keys) / 4
	for _, k := range fx.Keys[:q] {
		if err := f.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	fresh := Keys(q, 3)
	for _, k := range fresh {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	members := append(append([]uint64(nil), fx.Keys[q:]...), fresh...)
	checkNoFalseNegatives(t, Fixture{Filter: fx.Filter, Keys: members})
	checkBatchMatchesScalar(t, f, members, append(append([]uint64(nil), fx.Keys[:q]...), Keys(4096, 99)...))
}

// checkSaturatedQuotient drives an auto-expanding quotient filter out of
// remainder bits into its degenerate always-true state, where batch and
// scalar must both answer true for every key.
func checkSaturatedQuotient(t *testing.T, _ Fixture) {
	qf := quotient.New(4, 2)
	qf.SetAutoExpand(true)
	for k := uint64(0); k < 1<<12; k++ {
		if err := qf.Insert(k * 0x9E3779B97F4A7C15); err != nil {
			t.Fatal(err)
		}
	}
	if !qf.Saturated() {
		t.Fatal("quotient filter did not saturate after 4096 inserts at q=4, r=2")
	}
	absent := Keys(500, 99)
	checkBatchMatchesScalar(t, qf, absent, absent)
	for _, k := range absent {
		if !qf.Contains(k) {
			t.Fatalf("saturated filter answers false for %#x", k)
		}
	}
}

// checkZeroAllocs: the scalar and batched probes are the hottest code
// in the library and allocate nothing per call. Under -race a sharded
// batch may allocate, as sync.Pool drops items by design there.
func checkZeroAllocs(t *testing.T, fx Fixture) {
	absent := Keys(1, 99)[0]
	if avg := testing.AllocsPerRun(100, func() {
		fx.Filter.Contains(fx.Keys[0])
		fx.Filter.Contains(absent)
	}); avg != 0 {
		t.Errorf("Contains allocates %v per run, want 0", avg)
	}
	if _, pooled := fx.Filter.(*concurrent.Sharded); pooled && raceEnabled {
		return
	}
	batch := fx.Keys[:300] // spans two chunks
	out := make([]bool, len(batch))
	if avg := testing.AllocsPerRun(100, func() { core.ContainsBatch(fx.Filter, batch, out) }); avg != 0 {
		t.Errorf("ContainsBatch allocates %v per run, want 0", avg)
	}
}
