package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"beyondbloom/internal/experiments"
	"beyondbloom/internal/metrics"
)

// planted is an experiment whose one result row and acceptance table
// come from wrong, the count of wrong answers it "observed", and a
// wall-clock ratio that always misses its bound.
func planted(wrong int) experiments.Experiment {
	return experiments.Experiment{ID: "X1", Title: "planted", Run: func(experiments.Config) []*metrics.Table {
		rows := metrics.NewTable("X1: rows", "mode", "wrong_results").Named("rows")
		rows.AddRow("only", wrong)
		a := metrics.NewAcceptance("X1: acceptance")
		a.AtMost("wrong_results_total", float64(wrong), 0, true)
		a.AtMost("within_2x", 8.4, 2, false)
		return []*metrics.Table{rows, a}
	}}
}

// TestRunGatesInBothRenderings: a planted wrong result fails the run as
// text and as JSON; a missed wall-clock bound alone does not; and the
// JSON document is complete either way.
func TestRunGatesInBothRenderings(t *testing.T) {
	for _, asJSON := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, planted(0), experiments.Config{}, asJSON); err != nil {
			t.Errorf("json=%v: non-gating miss failed the run: %v", asJSON, err)
		}
		out.Reset()
		if err := run(&out, planted(3), experiments.Config{}, asJSON); err == nil {
			t.Errorf("json=%v: planted wrong_results=3 did not fail the run", asJSON)
		}
		if !asJSON {
			continue
		}
		var doc struct {
			Meta       map[string]any
			Rows       []map[string]any
			Acceptance []map[string]any
		}
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, out.String())
		}
		if doc.Meta["experiment"] != "X1" || len(doc.Rows) != 1 || doc.Rows[0]["wrong_results"] != 3.0 ||
			len(doc.Acceptance) != 2 || doc.Acceptance[0]["ok"] != false || doc.Acceptance[1]["gates"] != false {
			t.Errorf("unexpected document:\n%s", out.String())
		}
	}
}
