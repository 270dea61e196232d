package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPlotRendersSeries(t *testing.T) {
	p := NewPlot("demo", 0, 1, 2, 3)
	p.XLabel = "x axis"
	p.AddSeries("up", 1, 2, 3, 4)
	p.AddSeries("down", 4, 3, 2, 1)
	out := p.String()
	for _, want := range []string{"demo", "legend:", "* up", "+ down", "x axis"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Both markers must appear in the plot area.
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("markers missing")
	}
}

func TestPlotMonotoneSeriesShape(t *testing.T) {
	p := NewPlot("", 0, 1, 2)
	p.AddSeries("rise", 0, 5, 10)
	out := p.String()
	lines := strings.Split(out, "\n")
	// The first data row (top, max y) must contain the marker for the
	// final point; the last data row (min y) the first point.
	var top, bottom string
	for _, ln := range lines {
		if strings.Contains(ln, "|") && strings.Contains(ln, "*") {
			if top == "" {
				top = ln
			}
			bottom = ln
		}
	}
	if top == "" || bottom == "" || top == bottom {
		t.Fatalf("rising series should span rows:\n%s", out)
	}
	ti, bi := strings.LastIndex(top, "*"), strings.Index(bottom, "*")
	if ti <= bi {
		t.Errorf("rising series should put later points to the right: top %d, bottom %d", ti, bi)
	}
}

func TestPlotDegenerateInputs(t *testing.T) {
	if out := NewPlot("x").String(); !strings.Contains(out, "empty") {
		t.Errorf("no-data plot: %q", out)
	}
	p := NewPlot("flat", 1, 2)
	p.AddSeries("c", 3, 3)
	if out := p.String(); out == "" {
		t.Error("flat series must still render")
	}
}

// TestPlotSkipsGaps pins how a plot treats a failed cell: a NaN or infinite
// point is left out of the y range, gets no marker and no dots to or from
// it, and a plot with no finite point prints the empty-plot line.
func TestPlotSkipsGaps(t *testing.T) {
	nan := math.NaN()
	whole := NewPlot("", 0, 1, 2, 3)
	whole.AddSeries("a", 1, 2, 3, 4)
	gappy := NewPlot("", 0, 1, 2, 3)
	gappy.AddSeries("a", 1, 2, 3, 4)
	gappy.AddSeries("b", nan, nan, math.Inf(1), nan)
	if got, want := gappy.String(), whole.String(); strings.Replace(got, "   + b", "", 1) != want {
		t.Errorf("an all-gap series changed the plot:\n%s\nwant\n%s", got, want)
	}

	p := NewPlot("", 0, 1, 2, 3)
	p.AddSeries("a", 1, nan, 3, 4)
	out := p.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("plot with a gap prints a non-finite label:\n%s", out)
	}
	var area []string // the plot area, one string per row
	for _, ln := range strings.Split(out, "\n") {
		if _, row, ok := strings.Cut(ln, "|"); ok {
			area = append(area, row)
		}
	}
	if n := strings.Count(strings.Join(area, ""), "*"); n != 3 {
		t.Errorf("plot with one gap of four points stamps %d markers, want 3:\n%s", n, out)
	}
	// The segments 0-1 and 1-2 touch the gap; only 2-3 may be dotted.
	for _, row := range area {
		if c := strings.Index(row, "."); c >= 0 && c < 2*(56-1)/3 {
			t.Errorf("dot at column %d, left of the last finite segment:\n%s", c, out)
		}
	}

	empty := NewPlot("", 0, 1)
	empty.AddSeries("a", nan, math.Inf(-1))
	if out := empty.String(); out != "(empty plot)\n" {
		t.Errorf("plot with no finite point = %q, want the empty-plot line", out)
	}
}
