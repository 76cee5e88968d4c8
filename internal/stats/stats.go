// Package stats provides the small statistical and table-rendering helpers
// used by the experiments harness (cmd/experiments) to report the paper's
// tables and figures: means, speedups, percentages, and fixed-width text
// tables.
package stats

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest value (0 for an empty slice).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value (0 for an empty slice).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Speedup returns serial/parallel, the conventional speedup ratio; it returns
// 0 when parallel is 0.
func Speedup(serial, parallel float64) float64 {
	if parallel == 0 {
		return 0
	}
	return serial / parallel
}

// Percent returns 100*part/whole (0 when whole is 0).
func Percent(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// Table renders fixed-width text tables for experiment reports.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) *Table {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// AddRowf appends a row of formatted cells; each cell is a (format, value)
// application via fmt.Sprintf when given as Cell, or used verbatim.
func (t *Table) AddRowf(cells ...any) *Table {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.3g", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	return t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
