package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Plot renders line series as an ASCII chart — enough to eyeball the shape
// of Figure 9/10-style sensitivity curves directly in terminal output.
type Plot struct {
	Title  string
	XLabel string
	YLabel string

	xs     []float64
	series []plotSeries

	Width  int // plot area columns (default 56)
	Height int // plot area rows (default 16)
}

type plotSeries struct {
	name   string
	marker byte
	ys     []float64
}

// NewPlot creates a plot over the given x coordinates.
func NewPlot(title string, xs ...float64) *Plot {
	return &Plot{Title: title, xs: xs, Width: 56, Height: 16}
}

// AddSeries adds a named series; ys must align with the plot's xs. Markers
// are assigned in order: * + o x # @.
func (p *Plot) AddSeries(name string, ys ...float64) {
	markers := []byte{'*', '+', 'o', 'x', '#', '@'}
	m := markers[len(p.series)%len(markers)]
	p.series = append(p.series, plotSeries{name: name, marker: m, ys: ys})
}

// String renders the chart.
func (p *Plot) String() string {
	if len(p.xs) == 0 || len(p.series) == 0 {
		return "(empty plot)\n"
	}
	w, h := p.Width, p.Height
	if w < 16 {
		w = 16
	}
	if h < 4 {
		h = 4
	}

	// The y range spans the finite points only: a NaN (a failed cell) or an
	// infinity is a gap in its series, with no marker and no dots to it.
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		for i, y := range s.ys {
			if i < len(p.xs) && finite(y) {
				ymin = math.Min(ymin, y)
				ymax = math.Max(ymax, y)
			}
		}
	}
	if ymin > ymax {
		return "(empty plot)\n"
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	xmin, xmax := p.xs[0], p.xs[0]
	for _, x := range p.xs {
		xmin = math.Min(xmin, x)
		xmax = math.Max(xmax, x)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		c := int(math.Round((x - xmin) / (xmax - xmin) * float64(w-1)))
		return clamp(c, 0, w-1)
	}
	row := func(y float64) int {
		r := int(math.Round((ymax - y) / (ymax - ymin) * float64(h-1)))
		return clamp(r, 0, h-1)
	}

	// Connect consecutive points with interpolated markers, then stamp
	// the data points on top.
	for _, s := range p.series {
		for i := 0; i+1 < len(s.ys) && i+1 < len(p.xs); i++ {
			if !finite(s.ys[i]) || !finite(s.ys[i+1]) {
				continue
			}
			c0, r0 := col(p.xs[i]), row(s.ys[i])
			c1, r1 := col(p.xs[i+1]), row(s.ys[i+1])
			steps := max(abs(c1-c0), abs(r1-r0))
			for t := 1; t < steps; t++ {
				c := c0 + (c1-c0)*t/steps
				r := r0 + (r1-r0)*t/steps
				if grid[r][c] == ' ' {
					grid[r][c] = '.'
				}
			}
		}
	}
	for _, s := range p.series {
		for i, y := range s.ys {
			if i >= len(p.xs) {
				break
			}
			if !finite(y) {
				continue
			}
			grid[row(y)][col(p.xs[i])] = s.marker
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	labelW := 9
	for r := 0; r < h; r++ {
		label := ""
		switch r {
		case 0:
			label = trimFloat(ymax)
		case h - 1:
			label = trimFloat(ymin)
		case (h - 1) / 2:
			label = trimFloat((ymax + ymin) / 2)
		}
		fmt.Fprintf(&b, "%*s |%s\n", labelW, label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%*s +%s\n", labelW, "", strings.Repeat("-", w))

	// X tick labels: first, middle, last.
	ticks := make([]byte, w)
	for i := range ticks {
		ticks[i] = ' '
	}
	writeTick := func(c int, s string) {
		start := clamp(c-len(s)/2, 0, w-len(s))
		copy(ticks[start:], s)
	}
	writeTick(0, trimFloat(xmin))
	writeTick(w/2, trimFloat((xmin+xmax)/2))
	writeTick(w-1, trimFloat(xmax))
	fmt.Fprintf(&b, "%*s  %s\n", labelW, "", string(ticks))
	if p.XLabel != "" {
		fmt.Fprintf(&b, "%*s  %s\n", labelW, "", p.XLabel)
	}

	var legend []string
	for _, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c %s", s.marker, s.name))
	}
	sort.Strings(legend)
	fmt.Fprintf(&b, "%*s  legend: %s\n", labelW, "", strings.Join(legend, "   "))
	return b.String()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
