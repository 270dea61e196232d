package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Get("x") != 0 {
		t.Error("untouched counter must read zero")
	}
	s.Inc("x")
	s.Add("x", 4)
	s.Add("y", 2)
	if s.Get("x") != 5 || s.Get("y") != 2 {
		t.Errorf("x=%d y=%d", s.Get("x"), s.Get("y"))
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("names = %v", names)
	}
}

func TestSetRatio(t *testing.T) {
	var s Set
	if s.Ratio("a", "b") != 0 {
		t.Error("zero denominator must yield 0")
	}
	s.Add("a", 3)
	s.Add("b", 4)
	if got := s.Ratio("a", "b"); got != 0.75 {
		t.Errorf("ratio = %v", got)
	}
}

func TestSetMergeAndReset(t *testing.T) {
	var a, b Set
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(&b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Errorf("merge: x=%d y=%d", a.Get("x"), a.Get("y"))
	}
	a.Reset()
	if a.Get("x") != 0 || len(a.Names()) != 0 {
		t.Error("reset did not clear")
	}
}

func TestSetString(t *testing.T) {
	var s Set
	s.Add("beta", 2)
	s.Add("alpha", 1)
	want := "alpha=1\nbeta=2\n"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestHarmonicMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 2, 2}, 2},
		{[]float64{1, 0.5}, 2.0 / 3.0},
		{[]float64{1, 0}, 0}, // non-positive rejected
		{[]float64{1, -1}, 0},
	}
	for _, c := range cases {
		if got := HarmonicMean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("HarmonicMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	if got := GeometricMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeometricMean(2,8) = %v", got)
	}
	if GeometricMean([]float64{1, 0}) != 0 || GeometricMean(nil) != 0 {
		t.Error("degenerate inputs must yield 0")
	}
}

func TestArithmeticMean(t *testing.T) {
	if got := ArithmeticMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if ArithmeticMean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2, 3); math.Abs(got-50) > 1e-12 {
		t.Errorf("Speedup(2,3) = %v, want 50", got)
	}
	if got := Speedup(2, 1); math.Abs(got+50) > 1e-12 {
		t.Errorf("Speedup(2,1) = %v, want -50", got)
	}
	if Speedup(0, 1) != 0 {
		t.Error("zero base must yield 0")
	}
}

// TestGapsPropagate pins the rule that makes a failed cell a gap in every
// table: a NaN input turns each mean and a speedup on either side into NaN
// (never into the 0 a non-positive input gives), and Num prints it as FAIL.
func TestGapsPropagate(t *testing.T) {
	nan := math.NaN()
	gap := []float64{1.5, nan, 2}
	for name, got := range map[string]float64{
		"harmonic":      HarmonicMean(gap),
		"geometric":     GeometricMean(gap),
		"arithmetic":    ArithmeticMean(gap),
		"speedup base":  Speedup(nan, 2),
		"speedup value": Speedup(2, nan),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s over a gap = %v, want NaN", name, got)
		}
	}
	for _, c := range []struct {
		format string
		v      float64
		want   string
	}{
		{"%.2f", nan, "FAIL"},
		{"%+.2f", nan, "FAIL"},
		{"%.3f", 1.23456, "1.235"},
		{"%+.2f", 4.5, "+4.50"},
		{"%.2f", 0, "0.00"},
	} {
		if got := Num(c.format, c.v); got != c.want {
			t.Errorf("Num(%q, %v) = %q, want %q", c.format, c.v, got, c.want)
		}
	}
}

// TestMeanInequality: for positive inputs, harmonic <= geometric <=
// arithmetic — the classical inequality, checked property-style.
func TestMeanInequality(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a%50) + 1, float64(b%50) + 1, float64(c%50) + 1}
		h, g, m := HarmonicMean(xs), GeometricMean(xs), ArithmeticMean(xs)
		return h <= g+1e-9 && g <= m+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRowf("gamma", 7)
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"== Demo ==", "Name", "alpha", "2.50", "gamma  7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 3 rows.
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// All data lines should be equally wide (padded columns).
	if len(lines[3]) != len(lines[1]) && len(lines[4]) != len(lines[1]) {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("only-a")
	out := tb.String()
	if !strings.Contains(out, "only-a") {
		t.Errorf("short row lost: %s", out)
	}
}
