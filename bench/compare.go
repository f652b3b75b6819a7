package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// cell is one end-to-end metric of one workload on one side of a
// comparison: every run's value.
type cell struct {
	values []float64
}

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// cells groups a result file's runs by workload and metric.
func cells(rf *resultFile) map[string]map[string]*cell {
	out := map[string]map[string]*cell{}
	for _, r := range rf.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*cell{}
		}
		for name, v := range r.Metrics {
			c := out[r.Workload][name]
			if c == nil {
				c = &cell{}
				out[r.Workload][name] = c
			}
			c.values = append(c.values, v.Value)
		}
	}
	return out
}

// verdict applies one metric's bound to a (baseline, candidate) pair
// of run sets:
//
//	worse       the candidate's median is worse than the baseline's by
//	            more than the bound
//	unresolved  it is not, but either side's own quartile spread is
//	            wider than the bound, so "no worse" is not shown —
//	            unless every candidate run beats every baseline run
//	ok          otherwise
func verdict(ms metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	change := (mb - ma) / ma // positive: the candidate's value is higher
	worse := change
	if ms.Better == "higher" {
		worse = -change
	}
	if worse > ms.Bound {
		return "worse", change
	}
	if quartileSpread(a) > ms.Bound || quartileSpread(b) > ms.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (ms.Better == "higher") != (y > x) || x == y {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", change
		}
	}
	return "ok", change
}

// compareFiles prints one verdict per end-to-end metric and workload
// and each side's loadgen.slice_cv; the exit status is 1 only if some
// cell is worse.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	ra, err := loadResult(pathA)
	if err == nil {
		var rb *resultFile
		if rb, err = loadResult(pathB); err == nil {
			return compareResults(spec, ra, rb)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(spec *benchSpec, ra, rb *resultFile) int {
	ca, cb := cells(ra), cells(rb)
	status := 0
	fmt.Printf("%-12s %-22s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr", "verdict")
	for _, w := range spec.workloadNames() {
		for _, ms := range spec.EndToEnd {
			a, b := ca[w][ms.Name], cb[w][ms.Name]
			if a == nil || b == nil {
				fmt.Printf("%-12s %-22s missing on one side\n", w, ms.Name)
				continue
			}
			v, change := verdict(ms, a.values, b.values)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-12s %-22s %14s %14s %+7.1f%% %6.1f%% %6.1f%%  %s (bound %.0f%%, n=%d/%d)\n", w, ms.Name,
				fmtValue(median(a.values)), fmtValue(median(b.values)), 100*change,
				100*quartileSpread(a.values), 100*quartileSpread(b.values), v, 100*ms.Bound, len(a.values), len(b.values))
		}
		for side, c := range []map[string]map[string]*cell{ca, cb} {
			if cv := c[w]["loadgen.slice_cv"]; cv != nil {
				fmt.Printf("%-12s loadgen.slice_cv side %c: median %.3f over %d runs\n", w, 'a'+side, median(cv.values), len(cv.values))
			}
		}
	}
	return status
}
