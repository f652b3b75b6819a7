package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may get
// worse; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single place metric names,
// units, directions and bounds are written down: the program emits
// exactly the metrics listed there and -compare applies its bounds.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json (go run -C bench starts us in bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// metrics collects one run's values by name. set rejects a name
// BENCHMARK.json does not declare, so a typo fails the first run
// instead of silently reporting a zero.
type metrics struct {
	known  map[string]metricSpec
	values map[string]float64
	err    error
}

func newMetrics(s *benchSpec) *metrics {
	m := &metrics{known: map[string]metricSpec{}, values: map[string]float64{}}
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, ms := range list {
			m.known[ms.Name] = ms
		}
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	if _, ok := m.known[name]; !ok && m.err == nil {
		m.err = fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
	}
	m.values[name] = v
}

// ratio sets name to num/den, or to 0 when the denominator is empty
// (the metric does not apply to this run).
func (m *metrics) ratio(name string, num, den float64) {
	if den == 0 {
		m.set(name, 0)
		return
	}
	m.set(name, num/den)
}
