// Package report renders experiment data as aligned ASCII tables, ASCII
// heatmaps and violins — the textual equivalents of the paper's figures
// that cmd/waverepro and the benchmark harness print.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range width {
		_ = i
		b.WriteString(strings.Repeat("-", w+2))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// heatRamp maps normalized [0,1] values to a density ramp.
var heatRamp = []byte(" .:-=+*#%@")

// RenderHeatmap draws a heatmap as ASCII art with row/column labels and a
// numeric legend; missing cells print as '?' and negative sentinel values
// (the paper's band=-1 / halo=-1) as '<'.
func RenderHeatmap(h *stats.Heatmap, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	// Scale over non-sentinel values.
	lo, hi := 0.0, 0.0
	first := true
	for _, r := range h.RowLabels {
		for _, c := range h.ColLabels {
			v, ok := h.Get(r, c)
			if !ok || v < 0 {
				continue
			}
			if first {
				lo, hi = v, v
				first = false
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	// Rows print top-down from the largest label, like the paper's dim
	// axis.
	rows := append([]int(nil), h.RowLabels...)
	sort.Sort(sort.Reverse(sort.IntSlice(rows)))
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d |", r)
		for _, c := range h.ColLabels {
			v, ok := h.Get(r, c)
			switch {
			case !ok:
				b.WriteString("  ?")
			case v < 0:
				b.WriteString("  <")
			default:
				idx := 0
				if span > 0 {
					idx = int((v - lo) / span * float64(len(heatRamp)-1))
				}
				fmt.Fprintf(&b, "  %c", heatRamp[idx])
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("       +")
	for range h.ColLabels {
		b.WriteString("---")
	}
	b.WriteString("\n        ")
	for _, c := range h.ColLabels {
		lbl := fmt.Sprintf("%d", c)
		if len(lbl) > 2 {
			lbl = lbl[:2]
		}
		fmt.Fprintf(&b, "%3s", lbl)
	}
	fmt.Fprintf(&b, "\n  legend: '<' = -1 (not used), ' '..'@' = %.3g..%.3g\n", lo, hi)
	return b.String()
}

// RenderViolin draws a sideways violin: quartile markers over a density
// profile, as a textual stand-in for the paper's Figure 8.
func RenderViolin(v stats.Violin, title string, width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d)\n", title, v.N)
	if v.N == 0 {
		return b.String()
	}
	maxD := 0.0
	for _, d := range v.Density {
		if d > maxD {
			maxD = d
		}
	}
	for i, d := range v.Density {
		bar := 0
		if maxD > 0 {
			bar = int(d / maxD * float64(width))
		}
		marker := " "
		x := v.Grid[i]
		step := (v.MaxV - v.Min) / float64(len(v.Grid)-1)
		switch {
		case within(x, v.Med, step/2):
			marker = "o" // the paper's white median dot
		case within(x, v.Q1, step/2), within(x, v.Q3, step/2):
			marker = "+"
		}
		fmt.Fprintf(&b, "%10.3g %s %s\n", x, marker, strings.Repeat("#", bar))
	}
	fmt.Fprintf(&b, "  min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g sd=%.3g\n",
		v.Min, v.Q1, v.Med, v.Q3, v.MaxV, v.SD)
	return b.String()
}

func within(x, target, tol float64) bool {
	d := x - target
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Bar renders a labeled horizontal bar chart line set, used for the
// speedup comparisons of Figures 6 and 10.
func Bar(labels []string, values []float64, unit string, width int) string {
	if width < 10 {
		width = 10
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	maxL := 0
	for _, l := range labels {
		if len(l) > maxL {
			maxL = len(l)
		}
	}
	var b strings.Builder
	for i, l := range labels {
		n := 0
		if maxV > 0 {
			n = int(values[i] / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s %8.2f%s %s\n", maxL, l, values[i], unit, strings.Repeat("#", n))
	}
	return b.String()
}
