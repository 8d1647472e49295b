package experiment

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// RenderTable formats a figure as a fixed-width text table with one row
// per x value and one column per curve (mean ± 95% half-width).
func RenderTable(f *stats.Figure) string {
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	if len(f.Curves) == 0 {
		return b.String()
	}
	xs := f.XValues()

	header := make([]string, 0, len(f.Curves)+1)
	xl := f.XLabel
	if xl == "" {
		xl = "x"
	}
	header = append(header, xl)
	for _, c := range f.Curves {
		header = append(header, c.Label)
	}

	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := []string{trimNum(x)}
		for _, c := range f.Curves {
			cell := "-"
			for _, p := range c.Points {
				if p.X == x {
					if p.HalfCI > 0 {
						cell = fmt.Sprintf("%.2f ±%.2f", p.Y, p.HalfCI)
					} else {
						cell = fmt.Sprintf("%.2f", p.Y)
					}
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(values: %s)\n", f.YLabel)
	}
	return b.String()
}

// RenderCSV formats a figure as CSV: x, then mean and ci columns per
// curve.
func RenderCSV(f *stats.Figure) string {
	var b strings.Builder
	xl := f.XLabel
	if xl == "" {
		xl = "x"
	}
	b.WriteString(csvEscape(xl))
	for _, c := range f.Curves {
		fmt.Fprintf(&b, ",%s,%s", csvEscape(c.Label), csvEscape(c.Label+" ci95"))
	}
	b.WriteByte('\n')
	for _, x := range f.XValues() {
		b.WriteString(trimNum(x))
		for _, c := range f.Curves {
			found := false
			for _, p := range c.Points {
				if p.X == x {
					fmt.Fprintf(&b, ",%s,%s", trimNum(p.Y), trimNum(p.HalfCI))
					found = true
					break
				}
			}
			if !found {
				b.WriteString(",,")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chartMarkers are assigned to curves in order.
const chartMarkers = "o*+x#@%&e~"

// RenderChart draws a figure as an ASCII scatter chart with a legend.
// Width and height are the plot area in characters; sensible minimums
// are enforced.
func RenderChart(f *stats.Figure, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	xs := f.XValues()
	if len(xs) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	minX, maxX := xs[0], xs[0]
	for _, x := range xs {
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
	}
	minY, maxY := 0.0, 0.0
	for _, c := range f.Curves {
		for _, p := range c.Points {
			if p.Y > maxY {
				maxY = p.Y
			}
			if p.Y < minY {
				minY = p.Y
			}
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range f.Curves {
		marker := chartMarkers[ci%len(chartMarkers)]
		for _, p := range c.Points {
			col := int(float64(width-1) * (p.X - minX) / (maxX - minX))
			row := height - 1 - int(float64(height-1)*(p.Y-minY)/(maxY-minY))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = marker
			}
		}
	}
	yTop := fmt.Sprintf("%8.2f", maxY)
	yBot := fmt.Sprintf("%8.2f", minY)
	for i, line := range grid {
		label := strings.Repeat(" ", 8)
		switch i {
		case 0:
			label = yTop
		case height - 1:
			label = yBot
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", 8), width-len(trimNum(maxX)), trimNum(minX), trimNum(maxX))
	if f.XLabel != "" || f.YLabel != "" {
		fmt.Fprintf(&b, "x: %s, y: %s\n", f.XLabel, f.YLabel)
	}
	for ci, c := range f.Curves {
		fmt.Fprintf(&b, "  %c %s\n", chartMarkers[ci%len(chartMarkers)], c.Label)
	}
	return b.String()
}

// RenderJSON formats a figure as indented JSON for external tooling.
func RenderJSON(f *stats.Figure) (string, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", fmt.Errorf("experiment: marshal figure %s: %w", f.ID, err)
	}
	return string(data) + "\n", nil
}

// trimNum formats a float compactly.
func trimNum(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// csvEscape quotes a CSV field if needed.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
