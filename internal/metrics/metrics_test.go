package metrics

import (
	"strings"
	"testing"
)

type halfFilter struct{}

func (halfFilter) Contains(k uint64) bool { return k%2 == 0 }

func TestFPR(t *testing.T) {
	neg := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := FPR(halfFilter{}, neg); got != 0.5 {
		t.Fatalf("FPR = %f, want 0.5", got)
	}
	if got := FPR(halfFilter{}, nil); got != 0 {
		t.Fatalf("FPR(empty) = %f, want 0", got)
	}
}

func TestFalseNegatives(t *testing.T) {
	pos := []uint64{2, 4, 6, 7}
	if got := FalseNegatives(halfFilter{}, pos); got != 1 {
		t.Fatalf("FalseNegatives = %d, want 1", got)
	}
}

type emptyRangeFilter struct{}

func (emptyRangeFilter) MayContainRange(lo, hi uint64) bool { return lo == 0 }

func TestRangeFPR(t *testing.T) {
	ranges := [][2]uint64{{0, 5}, {1, 5}, {2, 5}, {0, 9}}
	if got := RangeFPR(emptyRangeFilter{}, ranges); got != 0.5 {
		t.Fatalf("RangeFPR = %f, want 0.5", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "filter", "bits/key", "fpr")
	tb.AddRow("bloom", 11.52, 0.0039)
	tb.AddRow("xor", 9.84, 0.0000001)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "bloom") || !strings.Contains(out, "11.52") {
		t.Errorf("missing row content:\n%s", out)
	}
	if !strings.Contains(out, "1.00e-07") {
		t.Errorf("small float should use scientific notation:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbbbb")
	tb.AddRow("xxxxxxxx", 1)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// All lines should start with a column padded to width 8 ("xxxxxxxx").
	if len(lines[0]) < 8 {
		t.Errorf("header not padded:\n%s", out)
	}
}

// TestTableJSONGolden pins the JSON rendering of a small mixed-type
// table: cells keep their types (a float below 0.001 is a number, not
// the "1.00e-07" of the text rendering), rows keep header order, and
// params land in meta after the experiment id.
func TestTableJSONGolden(t *testing.T) {
	tb := NewTable("demo (n=4, eps=1/256)", "filter", "keys", "fpr", "exact").
		Named("demo").With("n", 4).With("eps", 1.0/256)
	tb.AddRow("bloom", 3, 0.0039, false)
	tb.AddRow("xor", uint64(1)<<40, 0.0000001, true)
	acc := NewAcceptance("demo: acceptance")
	acc.AtMost("fpr_within_budget", 0.0039, 0.005, true)
	acc.AtLeast("speedup", 1.25, 1.3, false)
	var sb strings.Builder
	if err := WriteJSON(&sb, "E0", []*Table{tb, acc}); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "meta": {
    "experiment": "E0",
    "n": 4,
    "eps": 0.00390625
  },
  "demo": [
    {
      "filter": "bloom",
      "keys": 3,
      "fpr": 0.0039,
      "exact": false
    },
    {
      "filter": "xor",
      "keys": 1099511627776,
      "fpr": 1e-7,
      "exact": true
    }
  ],
  "acceptance": [
    {
      "check": "fpr_within_budget",
      "value": 0.0039,
      "op": "at_most",
      "bound": 0.005,
      "ok": true,
      "gates": true
    },
    {
      "check": "speedup",
      "value": 1.25,
      "op": "at_least",
      "bound": 1.3,
      "ok": false,
      "gates": false
    }
  ]
}
`
	if got := sb.String(); got != want {
		t.Errorf("JSON rendering changed:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(tb.String(), "1.00e-07") {
		t.Errorf("text rendering of the same table lost its float format:\n%s", tb.String())
	}
	if got := GatingFailures([]*Table{tb, acc}); len(got) != 0 {
		t.Errorf("GatingFailures = %v, want none (the failing check does not gate)", got)
	}
	acc.AtMost("wrong_results_total", 2, 0, true)
	if got := GatingFailures([]*Table{tb, acc}); len(got) != 1 || got[0] != "wrong_results_total" {
		t.Errorf("GatingFailures = %v, want [wrong_results_total]", got)
	}
	if got := Column[float64](tb, "fpr"); len(got) != 2 || got[1] != 0.0000001 {
		t.Errorf("Column[float64](fpr) = %v, want the typed cells", got)
	}
}
