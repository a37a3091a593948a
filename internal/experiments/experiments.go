// Package experiments contains one driver per table and figure of the
// paper's evaluation, each parameterized by sample counts so the same code
// runs at laptop scale (the defaults) and at paper scale (flags on
// cmd/repro). Every driver returns structured rows plus a formatted text
// rendering that mirrors the paper's presentation; README "Paper fidelity"
// records scale, substitutions and paper-versus-measured values.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Row is one line of an experiment's output table.
type Row struct {
	Label  string
	Values []float64
}

// Result is a completed experiment.
type Result struct {
	ID      string // e.g. "Table 1", "Figure 7"
	Title   string
	Columns []string
	Rows    []Row
	Notes   string
}

// Render writes the result as an aligned text table.
func (r Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	labelW := 0
	for ri, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
		cells[ri] = make([]string, len(row.Values))
		for vi, v := range row.Values {
			cells[ri][vi] = formatValue(v)
			if vi < len(widths) && len(cells[ri][vi]) > widths[vi] {
				widths[vi] = len(cells[ri][vi])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for i, c := range r.Columns {
		fmt.Fprintf(w, "  %*s", widths[i], c)
	}
	fmt.Fprintln(w)
	for ri, row := range r.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, row.Label)
		for vi := range row.Values {
			w2 := 0
			if vi < len(widths) {
				w2 = widths[vi]
			}
			fmt.Fprintf(w, "  %*s", w2, cells[ri][vi])
		}
		fmt.Fprintln(w)
	}
	if r.Notes != "" {
		fmt.Fprintln(w, strings.TrimRight("note: "+r.Notes, "\n"))
	}
	fmt.Fprintln(w)
	return nil
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Log2 formats a probability as its log2 — the paper's 2^x notation.
func Log2(p float64) float64 {
	if p <= 0 {
		return math.NaN()
	}
	return math.Log2(p)
}
