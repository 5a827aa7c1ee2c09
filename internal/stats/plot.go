package stats

// ASCII scatter/line plotting for experiment output: renders the paper's
// figures (normalized deadlocks vs load, cycles vs blockage, ...) directly
// in the terminal, one mark per series, with optional log-scaled y axis —
// handy because deadlock frequencies span several decades.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Series is one named sequence of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// Plot is a character-grid chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	LogY   bool // log10 y axis (zero/negative y values are dropped)
	Width  int  // plot area columns (default 64)
	Height int  // plot area rows (default 16)
	series []Series
}

// seriesMarks assigns one mark per series, cycling.
var seriesMarks = []byte{'o', '+', '*', 'x', '#', '@', '%', '&'}

// Add appends a series; x and y must have equal length.
func (p *Plot) Add(name string, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("stats: series %q has %d x values and %d y values", name, len(x), len(y))
	}
	p.series = append(p.series, Series{Name: name, X: x, Y: y})
	return nil
}

// Render draws the chart.
func (p *Plot) Render() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}
	// Collect plottable points and ranges.
	type pt struct {
		x, y float64
		mark byte
	}
	var pts []pt
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for si, s := range p.series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i := range s.X {
			y := s.Y[i]
			if p.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			pts = append(pts, pt{x: s.X[i], y: y, mark: mark})
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	if len(pts) == 0 {
		b.WriteString("(no plottable points)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for _, q := range pts {
		col := int(math.Round((q.x - minX) / (maxX - minX) * float64(w-1)))
		row := h - 1 - int(math.Round((q.y-minY)/(maxY-minY)*float64(h-1)))
		grid[row][col] = q.mark
	}
	yLabel := func(v float64) string {
		if p.LogY {
			v = math.Pow(10, v)
		}
		return trimFloat(v)
	}
	top, bottom := yLabel(maxY), yLabel(minY)
	margin := len(top)
	if len(bottom) > margin {
		margin = len(bottom)
	}
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", margin)
		if r == 0 {
			label = pad(top, margin)
		} else if r == h-1 {
			label = pad(bottom, margin)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", margin), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", margin),
		trimFloat(minX), strings.Repeat(" ", max(1, w-len(trimFloat(minX))-len(trimFloat(maxX)))), trimFloat(maxX))
	// Legend and axis names.
	var legend []string
	for si, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c %s", seriesMarks[si%len(seriesMarks)], s.Name))
	}
	fmt.Fprintf(&b, "  %s", strings.Join(legend, "   "))
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "   [x: %s, y: %s", p.XLabel, p.YLabel)
		if p.LogY {
			b.WriteString(" (log)")
		}
		b.WriteString("]")
	}
	b.WriteString("\n")
	return b.String()
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 3, 64)
	return s
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

// PlotTable builds a plot from a table: xCol supplies x values and each
// yCol becomes a series named by its header. Non-numeric cells are skipped.
func PlotTable(t *Table, xCol int, yCols []int, logY bool) (*Plot, error) {
	if xCol < 0 || xCol >= len(t.Headers) {
		return nil, fmt.Errorf("stats: x column %d out of range", xCol)
	}
	for _, yc := range yCols {
		if yc < 0 || yc >= len(t.Headers) {
			return nil, fmt.Errorf("stats: y column %d out of range", yc)
		}
	}
	p := &Plot{Title: t.Title, XLabel: t.Headers[xCol], LogY: logY}
	if len(yCols) == 1 {
		p.YLabel = t.Headers[yCols[0]]
	} else {
		p.YLabel = "value"
	}
	for _, yc := range yCols {
		var xs, ys []float64
		for _, row := range t.Rows {
			x, errX := strconv.ParseFloat(row[xCol], 64)
			y, errY := strconv.ParseFloat(row[yc], 64)
			if errX != nil || errY != nil {
				continue
			}
			xs = append(xs, x)
			ys = append(ys, y)
		}
		if err := p.Add(t.Headers[yc], xs, ys); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// NumericColumns returns the indices of columns whose every non-empty cell
// parses as a number (used to auto-plot tables).
func (t *Table) NumericColumns() []int {
	var out []int
	for c := range t.Headers {
		ok := len(t.Rows) > 0
		for _, row := range t.Rows {
			if c >= len(row) {
				ok = false
				break
			}
			if _, err := strconv.ParseFloat(row[c], 64); err != nil {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}
