// Package textplot renders experiment results as aligned text tables and
// CSV — the output format of cmd/ltexp and EXPERIMENTS.md.
package textplot

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the cell at (row, col), or "" when absent.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}

// MarshalJSON renders the table as {"headers": [...], "rows": [[...]]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.headers, rows})
}

func (t *Table) widths() []int {
	n := len(t.headers)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	ws := t.widths()
	line := func(cells []string) {
		parts := make([]string, len(ws))
		for i := range ws {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, ws[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(ws))
	for i := range ws {
		sep[i] = strings.Repeat("-", ws[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// F2 formats a float with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// F1 formats a float with one decimal.
func F1(x float64) string { return fmt.Sprintf("%.1f", x) }

// I formats an integer.
func I(x int) string { return fmt.Sprintf("%d", x) }

// U formats an unsigned integer.
func U(x uint64) string { return fmt.Sprintf("%d", x) }
