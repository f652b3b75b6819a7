// Package experiments implements the E1–E14 experiment suite indexed in
// DESIGN.md §2 — the stand-ins for the tutorial's (absent) tables and
// figures. Every experiment regenerates a table whose shape the paper's
// inline quantitative claims predict; EXPERIMENTS.md records paper-vs-
// measured for each. The same runners back `beyondbloom exp <id>` and
// the root bench suite.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"beyondbloom/internal/metrics"
)

// Config scales the experiment workloads. Scale 1.0 is the default
// (CLI) size; tests and benchmarks use smaller scales.
type Config struct {
	Scale float64
}

func (c Config) n(base int) int {
	if c.Scale == 0 {
		c.Scale = 1
	}
	n := int(float64(base) * c.Scale)
	if n < 100 {
		n = 100
	}
	return n
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) []*metrics.Table
}

// All returns the registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Space vs false-positive rate across filter classes (§2)", runE1},
		{"E2", "Dynamic filter throughput vs occupancy (§2.1)", runE2},
		{"E3", "Expansion strategies: FPR and query cost per doubling (§2.2)", runE3},
		{"E4", "Adaptivity under adversarial and skewed queries (§2.3)", runE4},
		{"E5", "Maplet positive/negative result sizes (§2.4)", runE5},
		{"E6", "Range filters: FPR vs range length, correlation, adversarial keys (§2.5)", runE6},
		{"E7", "Counting filters on skewed multisets (§2.6)", runE7},
		{"E8", "Static filters: space, build and query cost (§2.7)", runE8},
		{"E9", "Stacked filters on hot negative queries (§2.8)", runE9},
		{"E10", "LSM point lookups: filters, Monkey, maplet (§3.1)", runE10},
		{"E11", "LSM range scans with range filters (§3.1+§2.5)", runE11},
		{"E12", "k-mer counting and de Bruijn graphs (§3.2)", runE12},
		{"E13", "Sequence search: SBT vs Mantis (§3.2)", runE13},
		{"E14", "Malicious-URL yes/no lists (§3.3)", runE14},
		{"E15", "Circular-log engine with an expandable maplet (§3.1)", runE15},
		{"E16", "Fault injection: adaptivity and LSM lookups on an unreliable backing store (§2.3+§3.1)", runE16},
		{"E17", "Persistence: codec throughput and reload vs rebuild (§2.7+§3.1)", runE17},
		{"E18", "Concurrent LSM: read scaling under background compaction (§3.1)", runE18},
		{"E19", "Durable LSM: crash-point sweep and durability-mode put latency (§3.1)", runE19},
		{"E20", "Bloom variant frontier: classic vs blocked vs two-choice at equal bits/key (§2)", runE20},
		{"E21", "Filter service: batch-probe capacity and open-loop batching sweep (§3.3)", runE21},
		{"E22", "Maplet-first LSM: device reads per lookup and the batched maplet probe path (§3.1)", runE22},
		{"E23", "Growable filters: FPR drift, bits/key and pause-free expansion 2^10 -> 2^26 (§2.2)", runE23},
	}
	sort.Slice(exps, func(i, j int) bool { return idNum(exps[i].ID) < idNum(exps[j].ID) })
	return append(exps, ablations()...)
}

func idNum(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// total sums a typed count column.
func total[T int | int64](t *metrics.Table, header string) float64 {
	var n T
	for _, v := range metrics.Column[T](t, header) {
		n += v
	}
	return float64(n)
}

// where returns a float column's cells in the rows whose key column
// reads label.
func where[K comparable](t *metrics.Table, key string, label K, value string) []float64 {
	var cells []float64
	vals := metrics.Column[float64](t, value)
	for i, k := range metrics.Column[K](t, key) {
		if k == label {
			cells = append(cells, vals[i])
		}
	}
	return cells
}

// opsPerSec times fn over n operations.
func opsPerSec(n int, fn func()) float64 {
	start := time.Now()
	fn()
	el := time.Since(start).Seconds()
	if el == 0 {
		return 0
	}
	return float64(n) / el
}

// nsPerOp times fn over n operations.
func nsPerOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
