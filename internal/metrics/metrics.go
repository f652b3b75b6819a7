// Package metrics contains the measurement harness shared by the
// experiment suite: empirical false-positive-rate estimation, bits/key
// accounting, and an aligned-column table printer so every experiment
// emits a table comparable to the paper's claims.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Prober abstracts the membership probe of any filter so FPR can be
// estimated uniformly.
type Prober interface {
	Contains(key uint64) bool
}

// BatchProber is a Prober with a native batched probe. It mirrors
// core.BatchFilter structurally (without the SizeBits requirement), so
// every batched filter satisfies it and the harness uses the fast path
// automatically.
type BatchProber interface {
	Prober
	ContainsBatch(keys []uint64, out []bool)
}

// probeChunk is the staging size of the harness's batched probes; the
// out-buffer is a single fixed array reused across chunks.
const probeChunk = 512

// countPositives probes every key and counts positive answers, taking
// the batched path when the filter has one. Apart from one fixed-size
// out-buffer it does no per-key allocation.
func countPositives(f Prober, keys []uint64) int {
	hits := 0
	if bf, ok := f.(BatchProber); ok {
		var out [probeChunk]bool
		for start := 0; start < len(keys); start += probeChunk {
			chunk := keys[start:]
			if len(chunk) > probeChunk {
				chunk = chunk[:probeChunk]
			}
			bf.ContainsBatch(chunk, out[:len(chunk)])
			for _, hit := range out[:len(chunk)] {
				if hit {
					hits++
				}
			}
		}
		return hits
	}
	for _, k := range keys {
		if f.Contains(k) {
			hits++
		}
	}
	return hits
}

// FPR probes the filter with keys known to be absent and returns the
// fraction that came back positive.
func FPR(f Prober, negatives []uint64) float64 {
	if len(negatives) == 0 {
		return 0
	}
	return float64(countPositives(f, negatives)) / float64(len(negatives))
}

// FalseNegatives probes the filter with keys known to be present and
// returns how many were (incorrectly) reported absent. For a correct
// filter this must be zero.
func FalseNegatives(f Prober, positives []uint64) int {
	return len(positives) - countPositives(f, positives)
}

// RangeProber abstracts a range filter's probe.
type RangeProber interface {
	MayContainRange(lo, hi uint64) bool
}

// RangeFPR probes with ranges known to be empty and returns the fraction
// reported (falsely) non-empty.
func RangeFPR(f RangeProber, emptyRanges [][2]uint64) float64 {
	if len(emptyRanges) == 0 {
		return 0
	}
	fp := 0
	for _, r := range emptyRanges {
		if f.MayContainRange(r[0], r[1]) {
			fp++
		}
	}
	return float64(fp) / float64(len(emptyRanges))
}

// Table accumulates typed rows, the one representation of an
// experiment's results: Render and WriteJSON are two renderings of the
// same cells, so nothing parses a rendered table back into numbers.
type Table struct {
	Title   string
	name    string
	params  []param
	headers []string
	rows    [][]any
}

type param struct {
	key   string
	value any
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, name: title, headers: headers}
}

// Named gives the table the stable short name it is keyed by in the
// JSON document, in place of its title.
func (t *Table) Named(name string) *Table {
	t.name = name
	return t
}

// With records a typed parameter of the run (the values a title only
// prints); WriteJSON collects every table's parameters under "meta".
func (t *Table) With(key string, value any) *Table {
	t.params = append(t.params, param{key, value})
	return t
}

// AddRow appends a row of typed cells, one per header.
func (t *Table) AddRow(cells ...any) {
	t.rows = append(t.rows, cells)
}

// Len is the number of rows added so far.
func (t *Table) Len() int { return len(t.rows) }

// Column returns the named column's cells as T. A missing header or a
// cell of another type is a bug in the caller and panics.
func Column[T any](t *Table, header string) []T {
	i := slices.Index(t.headers, header)
	if i < 0 {
		panic(fmt.Sprintf("metrics: table %q has no column %q", t.Title, header))
	}
	col := make([]T, len(t.rows))
	for j, row := range t.rows {
		col[j] = row[i].(T)
	}
	return col
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001:
		return fmt.Sprintf("%.2e", v)
	case v < 1:
		return fmt.Sprintf("%.4f", v)
	case v < 100:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// Render writes the table to w as aligned text columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	rows := make([][]string, len(t.rows))
	for j, row := range t.rows {
		rows[j] = make([]string, len(row))
		for i, c := range row {
			rows[j][i] = fmt.Sprintf("%v", c)
			if v, ok := c.(float64); ok {
				rows[j][i] = formatFloat(v)
			}
			if i < len(widths) && len(rows[j][i]) > widths[i] {
				widths[i] = len(rows[j][i])
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// object marshals as a JSON object whose keys keep their order.
type object []param

func (o object) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, p := range o {
		if i > 0 {
			b = append(b, ',')
		}
		k, _ := json.Marshal(p.key)
		v, err := json.Marshal(p.value)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.key, err)
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// WriteJSON writes one indented JSON document for an experiment's
// tables: "meta" (the experiment id, then every table's parameters),
// then one array per table under its name, each row an object keyed by
// column header. Every cell is marshalled from its typed value.
func WriteJSON(w io.Writer, experiment string, tables []*Table) error {
	meta := object{{"experiment", experiment}}
	doc := object{{"meta", nil}}
	for _, t := range tables {
		meta = append(meta, t.params...)
		rows := make([]object, len(t.rows))
		for j, row := range t.rows {
			for i, c := range row {
				rows[j] = append(rows[j], param{t.headers[i], c})
			}
		}
		doc = append(doc, param{t.name, rows})
	}
	doc[0].value = meta
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// acceptanceName is how GatingFailures finds an experiment's checks.
const acceptanceName = "acceptance"

// NewAcceptance starts an experiment's acceptance table: one row per
// predicate with its value, its bound, whether it holds, and whether it
// gates `beyondbloom exp`'s exit code (a wall-clock ratio does not).
func NewAcceptance(title string) *Table {
	return NewTable(title, "check", "value", "op", "bound", "ok", "gates").Named(acceptanceName)
}

// AtMost adds the check value <= bound to an acceptance table.
func (t *Table) AtMost(check string, value, bound float64, gates bool) {
	t.AddRow(check, value, "at_most", bound, value <= bound, gates)
}

// AtLeast adds the check value >= bound to an acceptance table.
func (t *Table) AtLeast(check string, value, bound float64, gates bool) {
	t.AddRow(check, value, "at_least", bound, value >= bound, gates)
}

// GatingFailures returns the names of the gating checks that do not
// hold in the acceptance tables among tables.
func GatingFailures(tables []*Table) []string {
	var failed []string
	for _, t := range tables {
		if t.name != acceptanceName {
			continue
		}
		ok, gates := Column[bool](t, "ok"), Column[bool](t, "gates")
		for i, check := range Column[string](t, "check") {
			if gates[i] && !ok[i] {
				failed = append(failed, check)
			}
		}
	}
	return failed
}
