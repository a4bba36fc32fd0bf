// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) as a Table of per-benchmark series that renders as
// aligned text or CSV. Each exhibit is one entry in exhibits.go; most are
// benchmark × configuration columns that one function, build, fills.
// Simulation results are memoized per (benchmark, configuration), so
// regenerating the full set runs each distinct configuration exactly once.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is one regenerated exhibit: named columns of per-row values.
type Table struct {
	ID      string
	Title   string
	Columns []string // value column names (the first, implicit column is the row label)
	Rows    []Row
	Notes   string // paper-vs-measured commentary
}

// Row is one labelled series of values; NaN renders as "n/a" (the paper's
// N/A bars, e.g. divergent statistics for never-divergent benchmarks).
type Row struct {
	Label  string
	Values []float64
}

// AddRow appends a labelled row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// AddAverage appends an "AVG" row with the arithmetic mean of every column,
// skipping NaN entries per column.
func (t *Table) AddAverage() {
	if len(t.Rows) == 0 {
		return
	}
	avg := make([]float64, len(t.Columns))
	for c := range t.Columns {
		sum, n := 0.0, 0
		for _, r := range t.Rows {
			if c < len(r.Values) && !math.IsNaN(r.Values[c]) {
				sum += r.Values[c]
				n++
			}
		}
		if n == 0 {
			avg[c] = math.NaN()
		} else {
			avg[c] = sum / float64(n)
		}
	}
	t.Rows = append(t.Rows, Row{Label: "AVG", Values: avg})
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)

	labelW := len("benchmark")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(t.Columns))
		for c := range t.Columns {
			s := "n/a"
			if c < len(r.Values) && !math.IsNaN(r.Values[c]) {
				s = formatValue(r.Values[c])
			}
			cells[i][c] = s
		}
	}
	for c, name := range t.Columns {
		colW[c] = len(name)
		for i := range cells {
			if len(cells[i][c]) > colW[c] {
				colW[c] = len(cells[i][c])
			}
		}
	}

	fmt.Fprintf(&b, "%-*s", labelW, "benchmark")
	for c, name := range t.Columns {
		fmt.Fprintf(&b, "  %*s", colW[c], name)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.Label)
		for c := range t.Columns {
			fmt.Fprintf(&b, "  %*s", colW[c], cells[i][c])
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue picks a compact representation: integers plain, small ratios
// with three decimals.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// RenderCSV writes the table as RFC-4180 CSV: a header row of "benchmark"
// plus the column names, then one record per row. NaN cells are left empty.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"benchmark"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 1+len(t.Columns))
		rec[0] = r.Label
		for c := range t.Columns {
			if c < len(r.Values) && !math.IsNaN(r.Values[c]) {
				rec[c+1] = strconv.FormatFloat(r.Values[c], 'g', -1, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
