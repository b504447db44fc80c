// Package stats provides the small numeric-summary and table-rendering
// helpers shared by the experiment drivers and CLIs.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Summary holds the moments and quantiles of a sample.
type Summary struct {
	N           int
	Mean, Std   float64
	Min, Max    float64
	Median, P90 float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	var sum, sum2 float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		sum2 += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sum2 / float64(len(xs)-1))
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted sample
// using linear interpolation. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Table renders aligned text tables for experiment output. Rows keep
// their raw values: the text renderer rounds floats for alignment while
// RenderCSV emits them losslessly.
type Table struct {
	header []string
	rows   [][]interface{}
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Rows may be wider than the header (the extra
// columns render under empty headings).
func (t *Table) AddRow(cells ...interface{}) {
	t.rows = append(t.rows, cells)
}

// textCell formats a value for the aligned text renderer: floats at 4
// significant digits, everything else with %v.
func textCell(c interface{}) string {
	switch v := c.(type) {
	case float64:
		return fmt.Sprintf("%.4g", v)
	case float32:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// csvCell formats a value for CSV: floats use the shortest decimal
// representation that parses back to the same bits (strconv 'g' with
// precision -1), so CSV output is lossless.
func csvCell(c interface{}) string {
	switch v := c.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(v), 'g', -1, 32)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// nCols returns the widest column count across the header and all rows.
func (t *Table) nCols() int {
	n := len(t.header)
	for _, row := range t.rows {
		if len(row) > n {
			n = len(row)
		}
	}
	return n
}

// Render writes the table with aligned columns. Tables with no columns
// or rows wider than the header render without panicking: widths cover
// the widest row, and the separator is clamped to a non-negative length.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, t.nCols())
	for i, h := range t.header {
		widths[i] = len(h)
	}
	text := make([][]string, len(t.rows))
	for ri, row := range t.rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = textCell(c)
			if len(cells[i]) > widths[i] {
				widths[i] = len(cells[i])
			}
		}
		text[ri] = cells
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if total < 2 {
		total = 2 // zero-column table: empty separator, not a negative Repeat count
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range text {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV. Floats round-trip exactly (see
// csvCell); commas in cells are replaced by semicolons defensively (no
// quoting needed for our numeric content).
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	cells := make([]string, 0, len(t.header))
	for _, h := range t.header {
		cells = append(cells, esc(h))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(csvCell(c)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
