package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Table accumulates rows of an experiment's output and renders them
// aligned.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; values are formatted with %v.
func (t *Table) Add(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = fmt.Sprintf("%v", v)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n== %s ==\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// FormatDuration renders d compactly (ms below 10s, seconds above).
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < 10*time.Second:
		return fmt.Sprintf("%.0fms", float64(d.Milliseconds()))
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// FormatCount renders a large count in scientific-ish notation matching
// the paper's Table 1 style; capped counts get a ">=" prefix.
func FormatCount(n int64, capped bool) string {
	prefix := ""
	if capped {
		prefix = ">="
	}
	switch {
	case n < 10_000:
		return fmt.Sprintf("%s%d", prefix, n)
	default:
		exp := 0
		f := float64(n)
		for f >= 10 {
			f /= 10
			exp++
		}
		return fmt.Sprintf("%s%.1fe%d", prefix, f, exp)
	}
}
