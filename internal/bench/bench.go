// Package bench provides the small utilities of the in-process experiment
// runner (cmd/octopus-bench): wall-clock timers with mean summaries,
// fixed-width table rendering that mirrors how the backing papers report
// results, and runtime-observability deltas. Its tables are printed, not
// evidence; the repo's performance ledger is benchmark/.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Timer collects duration samples.
type Timer struct {
	samples []time.Duration
}

// Time runs fn once and records its duration.
func (t *Timer) Time(fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.samples = append(t.samples, d)
	return d
}

// Add records an externally measured duration.
func (t *Timer) Add(d time.Duration) { t.samples = append(t.samples, d) }

// N returns the sample count.
func (t *Timer) N() int { return len(t.samples) }

// Mean returns the mean duration.
func (t *Timer) Mean() time.Duration {
	if len(t.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range t.samples {
		total += d
	}
	return total / time.Duration(len(t.samples))
}

// Table renders fixed-width experiment tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; values are formatted with %v (floats get %.3g via
// Float, durations via Dur).
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = formatDur(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
