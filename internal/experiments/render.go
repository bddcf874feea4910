package experiments

import (
	"fmt"
	"strings"
)

// Render formats a Result as an aligned text table: one row per x value,
// one column per series (mean over the draws), mirroring the paper's plot
// series.
func Render(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(r.ID), r.Title)
	fmt.Fprintf(&b, "y: %s; %d draws per point; seed %d\n", r.YLabel, r.Draws, r.Seed)

	header := []string{r.XLabel}
	header = append(header, r.SeriesOrder...)
	withSolved := false
	for _, pt := range r.Points {
		if pt.Solved > 0 {
			withSolved = true
			break
		}
	}
	if withSolved {
		header = append(header, "solved")
	}
	rows := [][]string{header}
	for _, pt := range r.Points {
		row := []string{fmt.Sprintf("%d", pt.X)}
		for _, name := range r.SeriesOrder {
			s := pt.Series[name]
			if s.N == 0 {
				row = append(row, "-")
			} else if r.Normalized {
				row = append(row, fmt.Sprintf("%.2f", s.Mean))
			} else {
				row = append(row, fmt.Sprintf("%.0f", s.Mean))
			}
		}
		if withSolved {
			row = append(row, fmt.Sprintf("%d/%d", pt.Solved, r.Draws))
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for i, row := range rows {
		for c, cell := range row {
			fmt.Fprintf(&b, "%*s", widths[c]+2, cell)
		}
		b.WriteByte('\n')
		if i == 0 {
			for c := range row {
				fmt.Fprintf(&b, "%*s", widths[c]+2, strings.Repeat("-", widths[c]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// MeanRatio returns, for a normalized figure (Figure 11-style), the average
// over all points of a series' mean ratio — the paper's single-number
// "factor from the optimal".
func MeanRatio(r *Result, series string) float64 {
	var sum float64
	var k int
	for _, pt := range r.Points {
		s, ok := pt.Series[series]
		if !ok || s.N == 0 {
			continue
		}
		sum += s.Mean
		k++
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}
