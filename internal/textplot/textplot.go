// Package textplot renders the paper's figures as ASCII charts: stacked
// horizontal bars for the prediction/misprediction distribution panels
// (Figures 2, 3 and 5) and grouped bars for the per-class misprediction
// rate charts (Figures 4 and 6).
package textplot

import (
	"fmt"
	"io"
	"strings"
)

// segmentRunes are the fill characters assigned to stacked-bar segments in
// order; they stand in for the paper's bar colors.
var segmentRunes = []rune{'#', '=', '.', 'o', 'x', '%', '+', '*', '@', '~'}

// StackRow is one bar of a stacked chart.
type StackRow struct {
	Label string
	// Parts are the segment magnitudes, in the same order for every row.
	Parts []float64
}

// StackedBars renders rows as horizontal stacked bars of the given width.
// Each row is scaled independently when normalize is true (distribution
// panels, where parts sum to ~1) or against the global maximum row total
// otherwise (magnitude panels such as MPKI breakdowns).
//
//repro:deterministic
func StackedBars(w io.Writer, title string, segments []string, rows []StackRow, width int, normalize bool) {
	if width < 10 {
		width = 10
	}
	fmt.Fprintf(w, "%s\n", title)
	legend := make([]string, 0, len(segments))
	for i, s := range segments {
		legend = append(legend, fmt.Sprintf("%c %s", segRune(i), s))
	}
	fmt.Fprintf(w, "  legend: %s\n", strings.Join(legend, " | "))

	labelWidth := 0
	for _, r := range rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}
	globalMax := 0.0
	for _, r := range rows {
		if t := rowTotal(r); t > globalMax {
			globalMax = t
		}
	}
	for _, r := range rows {
		total := rowTotal(r)
		scale := 0.0
		switch {
		case normalize && total > 0:
			scale = float64(width) / total
		case !normalize && globalMax > 0:
			scale = float64(width) / globalMax
		}
		var bar strings.Builder
		for i, p := range r.Parts {
			n := int(p*scale + 0.5)
			for j := 0; j < n; j++ {
				bar.WriteRune(segRune(i))
			}
		}
		line := bar.String()
		if normalize && len(line) > width {
			line = line[:width]
		}
		suffix := ""
		if !normalize {
			suffix = fmt.Sprintf("  %.2f", total)
		}
		fmt.Fprintf(w, "  %-*s |%s%s\n", labelWidth, r.Label, line, suffix)
	}
}

//repro:deterministic
func rowTotal(r StackRow) float64 {
	t := 0.0
	for _, p := range r.Parts {
		t += p
	}
	return t
}

//repro:deterministic
func segRune(i int) rune {
	return segmentRunes[i%len(segmentRunes)]
}

// Bar is one bar of a plain bar chart.
type Bar struct {
	Label string
	Value float64
}

// Bars renders labeled horizontal bars scaled to the maximum value, with
// the numeric value printed after each bar.
//
//repro:deterministic
func Bars(w io.Writer, title string, bars []Bar, width int) {
	if width < 10 {
		width = 10
	}
	fmt.Fprintf(w, "%s\n", title)
	labelWidth := 0
	max := 0.0
	for _, b := range bars {
		if len(b.Label) > labelWidth {
			labelWidth = len(b.Label)
		}
		if b.Value > max {
			max = b.Value
		}
	}
	for _, b := range bars {
		n := 0
		if max > 0 {
			n = int(b.Value/max*float64(width) + 0.5)
		}
		fmt.Fprintf(w, "  %-*s |%s %.1f\n", labelWidth, b.Label, strings.Repeat("#", n), b.Value)
	}
}

// GroupedBars renders one group of bars per row label (e.g. one group per
// trace with one bar per prediction class), as in Figures 4 and 6.
//
//repro:deterministic
func GroupedBars(w io.Writer, title string, groups []Group, width int) {
	fmt.Fprintf(w, "%s\n", title)
	max := 0.0
	inner := 0
	for _, g := range groups {
		for _, b := range g.Bars {
			if b.Value > max {
				max = b.Value
			}
			if len(b.Label) > inner {
				inner = len(b.Label)
			}
		}
	}
	for _, g := range groups {
		fmt.Fprintf(w, "  %s\n", g.Label)
		for _, b := range g.Bars {
			n := 0
			if max > 0 {
				n = int(b.Value/max*float64(width) + 0.5)
			}
			fmt.Fprintf(w, "    %-*s |%s %.1f\n", inner, b.Label, strings.Repeat("#", n), b.Value)
		}
	}
}

// Group is one labeled group of bars.
type Group struct {
	Label string
	Bars  []Bar
}

// Table renders a simple aligned text table.
//
//repro:deterministic
func Table(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			cw := 0
			if i < len(widths) {
				cw = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", cw, c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
