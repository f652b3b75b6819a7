package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"beyondbloom/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// small runs every experiment at reduced scale: primarily a smoke test
// that each regenerates its tables, with shape assertions on the ones
// whose claims are deterministic enough to check cheaply.
const smallScale = 0.05

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 30 { // E1-E24 plus ablations A1-A6
		t.Fatalf("registry has %d experiments, want 30", len(exps))
	}
	for i, e := range exps {
		want := "E" + strconv.Itoa(i+1)
		if i >= 24 {
			want = "A" + strconv.Itoa(i-23)
		}
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E7"); !ok {
		t.Error("ByID(E7) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should fail")
	}
}

// runs holds every run the tests made, so the tests that read one
// experiment at one scale share one run.
var runs = map[string][]*metrics.Table{}

// runAt runs one experiment at scale, once per test binary, and
// returns its typed tables, failing the test if any of them has no
// rows.
func runAt(t *testing.T, id string, scale float64) []*metrics.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	key := fmt.Sprint(id, "@", scale)
	tables, done := runs[key]
	if !done {
		tables = e.Run(Config{Scale: scale})
		runs[key] = tables
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range tables {
		if tb.Len() == 0 {
			t.Fatalf("%s produced an empty table:\n%s", id, tb)
		}
	}
	return tables
}

func runOne(t *testing.T, id string) []*metrics.Table { return runAt(t, id, smallScale) }

// wantLabels checks that a string column holds every one of labels.
func wantLabels(t *testing.T, tb *metrics.Table, header string, labels ...string) {
	t.Helper()
	have := map[string]bool{}
	for _, l := range metrics.Column[string](tb, header) {
		have[l] = true
	}
	for _, l := range labels {
		if !have[l] {
			t.Errorf("column %s is missing %s:\n%s", header, l, tb)
		}
	}
}

// wantAllZero checks that a count column reads 0 in every row.
func wantAllZero[T int | int64](t *testing.T, tb *metrics.Table, header string) {
	t.Helper()
	if total[T](tb, header) != 0 {
		t.Errorf("column %s must read 0 everywhere:\n%s", header, tb)
	}
}

// wantGatesHold checks an experiment's acceptance table: it carries
// every named check, and every check that gates holds.
func wantGatesHold(t *testing.T, tables []*metrics.Table, checks ...string) {
	t.Helper()
	wantLabels(t, tables[len(tables)-1], "check", checks...)
	if failed := metrics.GatingFailures(tables); len(failed) != 0 {
		t.Errorf("gating checks failed: %v\n%s", failed, tables[len(tables)-1])
	}
}

func TestE1SpaceShape(t *testing.T) {
	tb := runOne(t, "E1")[0]
	have := strings.Join(metrics.Column[string](tb, "filter"), " ")
	for _, name := range []string{"bloom", "quotient", "cuckoo", "xor", "ribbon", "prefix"} {
		if !strings.Contains(have, name) {
			t.Errorf("E1 missing filter %s:\n%s", name, tb)
		}
	}
}

func TestE2Runs(t *testing.T) { runOne(t, "E2") }

// TestE3Runs pins E3's FPR-per-expansion table to testdata/e3.json at
// full scale: every cell is a false-positive rate of seeded keys
// against seeded filters, so the run is deterministic. (At the test
// scale the infinifilter column reads all zeros and would pin nothing;
// the query-cost table holds wall-clock times and is not pinned.)
// Regenerate with `go test ./internal/experiments -run TestE3Runs -update`.
func TestE3Runs(t *testing.T) { wantGolden(t, "E3", runAt(t, "E3", 1)[:1]) }

// TestE4Runs pins E4's -json rendering to testdata/e4.json: every cell
// is a count or a rate of seeded keys against seeded filters, and the
// false-positive cache evicts in FIFO order, so the run is
// deterministic. Regenerate with
// `go test ./internal/experiments -run TestE4Runs -update`.
func TestE4Runs(t *testing.T) { wantGolden(t, "E4", runOne(t, "E4")) }

func TestE5Runs(t *testing.T)  { runOne(t, "E5") }
func TestE6Runs(t *testing.T)  { runOne(t, "E6") }
func TestE7Runs(t *testing.T)  { runOne(t, "E7") }
func TestE8Runs(t *testing.T)  { runOne(t, "E8") }
func TestE9Runs(t *testing.T)  { runOne(t, "E9") }
func TestE10Runs(t *testing.T) { runOne(t, "E10") }
func TestE11Runs(t *testing.T) { runOne(t, "E11") }
func TestE12Runs(t *testing.T) { runOne(t, "E12") }
func TestE13Runs(t *testing.T) { runOne(t, "E13") }
func TestE14Runs(t *testing.T) { runOne(t, "E14") }
func TestE15Runs(t *testing.T) { runOne(t, "E15") }

// TestE13TinyScale pins the genome-length clamp: below -scale ~0.05 the
// query window used to start before the genome and panic.
func TestE13TinyScale(t *testing.T) { runAt(t, "E13", 0.01) }

// TestE16FaultExperiment checks the acceptance claims of the fault
// experiment: under 20% transient remote errors the adaptive loop still
// converges with zero false negatives, and the LSM store answers every
// query correctly under every device/filter fault scenario. It also
// pins the whole -json rendering to testdata/e16.json: every cell is a
// counter driven by seeded injectors and a synchronous store, so a
// change to the fault, retry or repair paths that alters behaviour
// shows up as a diff. Regenerate with
// `go test ./internal/experiments -run TestE16FaultExperiment -update`.
func TestE16FaultExperiment(t *testing.T) {
	tables := runOne(t, "E16")
	adaptive, store := tables[0], tables[1]
	wantLabels(t, adaptive, "scenario", "healthy", "err20%_no_retry", "err20%_retry4", "outage_then_recover")
	wantLabels(t, store, "scenario", "dev_err20%", "filter_corrupt20%", "dev_err20%+perm2%+filter10%")
	wantAllZero[int](t, adaptive, "false_negatives")
	wantAllZero[int](t, store, "wrong_answers")
	rounds := metrics.Column[string](adaptive, "rounds_to_clean")
	for i, sc := range metrics.Column[string](adaptive, "scenario") {
		if sc == "err20%_retry4" && rounds[i] == "never" {
			t.Errorf("20%% transient errors with retry must still converge:\n%s", adaptive)
		}
	}
	wantGolden(t, "E16", tables)
}

// wantGolden compares an experiment's -json rendering with
// testdata/<id>.json, or rewrites that file under -update.
func wantGolden(t *testing.T, id string, tables []*metrics.Table) {
	t.Helper()
	var got bytes.Buffer
	if err := metrics.WriteJSON(&got, id, tables); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", strings.ToLower(id)+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s drifted from its golden.\n--- got ---\n%s\n--- want ---\n%s", id, got.Bytes(), want)
	}
}

// TestE17PersistExperiment checks the persistence experiment's shape:
// all filter types appear in the throughput table and both comparison
// tables report their rebuild and reload/reopen rows.
func TestE17PersistExperiment(t *testing.T) {
	tables := runOne(t, "E17")
	wantLabels(t, tables[0], "filter", "bloom", "blocked", "cuckoo", "quotient", "xor", "sharded(cuckoo,8)")
	wantLabels(t, tables[1], "path", "rebuild_from_keys", "reload_from_file")
	wantLabels(t, tables[2], "path", "rebuild_with_puts", "reopen_from_disk")
}

// TestE18ConcurrentExperiment checks the concurrency experiment's
// invariant: every read-scaling row reports zero wrong results, with
// and without the churn writer.
func TestE18ConcurrentExperiment(t *testing.T) {
	tables := runOne(t, "E18")
	if rows := tables[0].Len(); rows != 8 {
		t.Errorf("E18 produced %d read-scaling rows, want 8:\n%s", rows, tables[0])
	}
	wantLabels(t, tables[0], "write_load", "none", "churn")
	wantAllZero[int64](t, tables[0], "wrong_results")
	wantLabels(t, tables[1], "mode", "sync_inline", "bg_budget=2", "bg_budget=16")
}

// TestE19DurableExperiment checks the durability experiment's
// invariant: the crash sweep reports zero lost acknowledged writes and
// zero invented writes in every mode, the latency ablation covers all
// four durability modes, and the gating checks say the same.
func TestE19DurableExperiment(t *testing.T) {
	tables := runOne(t, "E19")
	sweep, lat := tables[0], tables[1]
	wantLabels(t, sweep, "mode", "group", "always", "buffered")
	if sweep.Len() != 3 {
		t.Errorf("E19a produced %d sweep rows, want 3:\n%s", sweep.Len(), sweep)
	}
	wantAllZero[int](t, sweep, "lost_acked")
	wantAllZero[int](t, sweep, "invented")
	wantLabels(t, lat, "mode", "no_wal", "buffered", "group_commit", "fsync_per_op")
	wantGatesHold(t, tables, "lost_acked_total", "invented_total", "within_2x")
}

// TestE20FrontierExperiment checks the Bloom-variant frontier's shape:
// all three variants appear at every bits/key budget, and the overfill
// table covers both blocked variants.
func TestE20FrontierExperiment(t *testing.T) {
	tables := runOne(t, "E20")
	rows := map[string]int{}
	for _, tb := range tables {
		for _, name := range metrics.Column[string](tb, "filter") {
			rows[name]++
		}
	}
	// 6 bits/key budgets in the frontier table; blocked and choices also
	// appear in 4 overfill rows each.
	if rows["bloom"] != 6 || rows["blocked"] != 10 || rows["choices"] != 10 {
		t.Errorf("E20 row counts bloom=%d blocked=%d choices=%d, want 6/10/10:\n%s%s",
			rows["bloom"], rows["blocked"], rows["choices"], tables[0], tables[1])
	}
}

// TestE22MapletFirstExperiment checks the maplet-first experiment's
// invariant: every shape×policy cell answers with zero wrong results
// against the exact model, all three policies appear in all three tree
// shapes, the batch and frontier tables cover their sweeps, and the
// gating checks hold.
func TestE22MapletFirstExperiment(t *testing.T) {
	tables := runOne(t, "E22")
	reads, batch := tables[0], tables[1]
	if reads.Len() != 9 {
		t.Errorf("E22 produced %d point-read rows, want 9:\n%s", reads.Len(), reads)
	}
	wantLabels(t, reads, "shape", "uniform_leveling", "uniform_tiering", "churn_lazy_leveling")
	wantLabels(t, reads, "policy", "bloom_uniform", "monkey", "maplet_first")
	wantAllZero[int](t, reads, "wrong_results")
	if batch.Len() != 4 {
		t.Errorf("E22b produced %d batch rows, want 4:\n%s", batch.Len(), batch)
	}
	if frontier := tables[2]; frontier.Len() != 3 {
		t.Errorf("E22c produced %d frontier rows at small scale, want 3 (2^15 keys × 3 remainders):\n%s", frontier.Len(), frontier)
	}
	wantGatesHold(t, tables, "wrong_results_total", "maplet_hit_within_1_2", "maplet_miss_at_most_monkey", "batch_256_at_least_1_3x")
}

// TestE23GrowthGates checks that all three E23 claims gate and hold at
// smoke scale.
func TestE23GrowthGates(t *testing.T) {
	tables := runOne(t, "E23")
	wantGatesHold(t, tables, "fpr_within_1_5x", "pause_within_10x", "wrong_results_total")
	acc := tables[len(tables)-1]
	for _, gates := range metrics.Column[bool](acc, "gates") {
		if !gates {
			t.Errorf("every E23 check must gate:\n%s", acc)
		}
	}
}

// e24Doc is E24's -json document as typed rows. Decoding refuses
// unknown fields, so a column E24 renames or adds fails the decode.
type e24Doc struct {
	Meta struct {
		Experiment string `json:"experiment"`
		Slices     int    `json:"slices"`
		AVX512     bool   `json:"avx512"`
	} `json:"meta"`
	Pairs []struct {
		Pair        string  `json:"pair"`
		A           string  `json:"a"`
		B           string  `json:"b"`
		Keys        int     `json:"keys"`
		Batch       int     `json:"batch"`
		ANsPerKey   float64 `json:"a_ns_per_key"`
		BNsPerKey   float64 `json:"b_ns_per_key"`
		Speedup     float64 `json:"speedup"`
		IQR         float64 `json:"iqr"`
		Spread      float64 `json:"run_spread"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"pairs"`
	Codec []struct {
		Round       string  `json:"round"`
		Keys        int     `json:"keys"`
		NsPerKey    float64 `json:"ns_per_key"`
		IQR         float64 `json:"iqr"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		Gates       bool    `json:"gates"`
	} `json:"codec"`
	Acceptance []struct {
		Check string  `json:"check"`
		Value float64 `json:"value"`
		Op    string  `json:"op"`
		Bound float64 `json:"bound"`
		OK    bool    `json:"ok"`
		Gates bool    `json:"gates"`
	} `json:"acceptance"`
}

func decodeE24(t *testing.T, what string, raw []byte) (doc e24Doc, pairs, rounds, checks []string) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s does not parse as E24's rows: %v", what, err)
	}
	if doc.Meta.Experiment != "E24" {
		t.Fatalf("%s is experiment %q, want E24", what, doc.Meta.Experiment)
	}
	for _, p := range doc.Pairs {
		pairs = append(pairs, p.Pair)
	}
	for _, r := range doc.Codec {
		rounds = append(rounds, r.Round)
	}
	for _, c := range doc.Acceptance {
		checks = append(checks, c.Check)
	}
	return doc, pairs, rounds, checks
}

// TestE24PairsMatchCommittedFile runs E24 at test scale, where only the
// allocation checks gate, and holds BENCH_batch.json, E24's committed
// full-scale output, to the same pairs, codec rounds and checks: a pair
// added, renamed or dropped fails here until the file is regenerated
// with scripts/bench.sh.
func TestE24PairsMatchCommittedFile(t *testing.T) {
	tables := runAt(t, "E24", 0.01)
	// Under -race sync.Pool drops items by design, so the pooled
	// scratch of concurrent.Sharded's batch probe allocates.
	if failed := metrics.GatingFailures(tables); len(failed) != 0 && !raceEnabled {
		t.Errorf("gating checks failed: %v", failed)
	}
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, "E24", tables); err != nil {
		t.Fatal(err)
	}
	run, pairs, rounds, checks := decodeE24(t, "E24 -json", buf.Bytes())
	for _, c := range run.Acceptance {
		if c.Gates != strings.HasSuffix(c.Check, "/allocs") {
			t.Errorf("%s: gates %v at test scale; only the allocs checks gate there", c.Check, c.Gates)
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, cPairs, cRounds, cChecks := decodeE24(t, "BENCH_batch.json", raw)
	for _, c := range []struct {
		what      string
		run, file []string
	}{{"pairs", pairs, cPairs}, {"codec rounds", rounds, cRounds}, {"checks", checks, cChecks}} {
		if !slices.Equal(c.run, c.file) {
			t.Errorf("BENCH_batch.json has %s %v, E24 %v: regenerate it with scripts/bench.sh", c.what, c.file, c.run)
		}
	}
}

// shape lists, for each key of an experiment's -json document (meta
// and every table), the fields its objects carry with the JSON kind of
// each, and for an acceptance table also its check names.
func shape(t *testing.T, what string, raw []byte) map[string][]string {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	out := map[string][]string{}
	for name, v := range doc {
		var rows []map[string]any
		if name == "meta" {
			rows = []map[string]any{{}}
			if err := json.Unmarshal(v, &rows[0]); err != nil {
				t.Fatalf("%s meta: %v", what, err)
			}
		} else if err := json.Unmarshal(v, &rows); err != nil {
			t.Fatalf("%s table %s: %v", what, name, err)
		}
		fields := map[string]bool{}
		for _, row := range rows {
			for k, cell := range row {
				fields[fmt.Sprintf("%s:%T", k, cell)] = true
			}
			if check, ok := row["check"].(string); ok && name == "acceptance" {
				fields["check="+check] = true
			}
		}
		for f := range fields {
			out[name] = append(out[name], f)
		}
		slices.Sort(out[name])
	}
	return out
}

// TestCommittedFilesMatchRuns holds the committed BENCH files other
// than E24's (TestE24PairsMatchCommittedFile) to a test-scale run of
// the experiment that writes each: the same tables, the
// same columns and meta fields with the same JSON kinds, and the same
// acceptance checks. A field the run does not write is refused, and a
// table or column added, renamed, dropped or retyped fails here until
// the file is regenerated with scripts/bench.sh.
func TestCommittedFilesMatchRuns(t *testing.T) {
	for _, c := range []struct{ id, file string }{
		{"E19", "BENCH_wal.json"},
		{"E21", "BENCH_service.json"},
		{"E22", "BENCH_lsm_maplet.json"},
		{"E23", "BENCH_growth.json"},
	} {
		t.Run(c.id, func(t *testing.T) {
			var run bytes.Buffer
			if err := metrics.WriteJSON(&run, c.id, runOne(t, c.id)); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join("..", "..", c.file))
			if err != nil {
				t.Fatal(err)
			}
			want, got := shape(t, c.id+" -json", run.Bytes()), shape(t, c.file, raw)
			for name, fields := range want {
				if !slices.Equal(got[name], fields) {
					t.Errorf("%s %s has %v, %s writes %v: regenerate it with scripts/bench.sh", c.file, name, got[name], c.id, fields)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s has %s, which %s does not write", c.file, name, c.id)
				}
			}
		})
	}
}

func TestA1Runs(t *testing.T) { runOne(t, "A1") }
func TestA2Runs(t *testing.T) { runOne(t, "A2") }
func TestA3Runs(t *testing.T) { runOne(t, "A3") }
func TestA4Runs(t *testing.T) { runOne(t, "A4") }
func TestA5Runs(t *testing.T) { runOne(t, "A5") }
func TestA6Runs(t *testing.T) { runOne(t, "A6") }
