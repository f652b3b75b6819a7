package experiments

import (
	"strings"
	"testing"

	"beyondbloom/internal/metrics"
)

// small runs every experiment at reduced scale: primarily a smoke test
// that each regenerates its tables, with shape assertions on the ones
// whose claims are deterministic enough to check cheaply.
const smallScale = 0.05

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 29 { // E1-E23 plus ablations A1-A6
		t.Fatalf("registry has %d experiments, want 29", len(exps))
	}
	for i, e := range exps {
		want := "E" + itoa(i+1)
		if i >= 23 {
			want = "A" + itoa(i-22)
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

// runAt runs one experiment at scale and returns its typed tables,
// failing the test if any of them has no rows.
func runAt(t *testing.T, id string, scale float64) []*metrics.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	tables := e.Run(Config{Scale: scale})
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

func TestE2Runs(t *testing.T)  { runOne(t, "E2") }
func TestE3Runs(t *testing.T)  { runOne(t, "E3") }
func TestE4Runs(t *testing.T)  { runOne(t, "E4") }
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
// query correctly under every device/filter fault scenario.
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
// shapes, the batch table covers the sweep, and the gating checks hold.
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
	wantGatesHold(t, tables, "wrong_results_total", "maplet_hit_within_1_2", "batch_256_at_least_1_3x")
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

func TestA1Runs(t *testing.T) { runOne(t, "A1") }
func TestA2Runs(t *testing.T) { runOne(t, "A2") }
func TestA3Runs(t *testing.T) { runOne(t, "A3") }
func TestA4Runs(t *testing.T) { runOne(t, "A4") }
func TestA5Runs(t *testing.T) { runOne(t, "A5") }
func TestA6Runs(t *testing.T) { runOne(t, "A6") }
