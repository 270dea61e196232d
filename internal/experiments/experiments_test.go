package experiments

import (
	"strings"
	"testing"
)

// fastOpts keeps experiment tests quick: two benchmarks, small budgets.
func fastOpts() Options {
	return Options{Warmup: 10_000, Measure: 30_000, Benchmarks: []string{"gzip", "mcf"}}
}

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAllExperimentsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
}

func TestTable1(t *testing.T) {
	res, err := runTable1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "256 entry instruction window") {
		t.Error("Table 1 missing window row")
	}
}

func TestTable2(t *testing.T) {
	res, err := runTable2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table2Result)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AvgFragSize < 6 || row.AvgFragSize > 16 {
			t.Errorf("%s: fragment size %.2f implausible", row.Bench, row.AvgFragSize)
		}
		if row.PaperSize == 0 {
			t.Errorf("%s: no paper reference value", row.Bench)
		}
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := runFig4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*SweepResult)
	w16, tc := r.Summary["W16"], r.Summary["TC"]
	pf2, pf4 := r.Summary["PF-2x8w"], r.Summary["PF-4x4w"]
	t.Logf("util: W16 %.2f TC %.2f PF-2x8w %.2f PF-4x4w %.2f", w16, tc, pf2, pf4)
	if !(w16 < tc && tc < pf2 && pf2 < pf4) {
		t.Errorf("Fig 4 ordering broken: %.2f %.2f %.2f %.2f", w16, tc, pf2, pf4)
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven sweep")
	}
	res, err := runFig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig7Result)
	small, large := r.At(256, 2), r.At(16384, 2)
	t.Logf("live-out accuracy: 256 entries %.3f, 16K entries %.3f", small, large)
	if large < small {
		t.Error("accuracy must not fall with more entries")
	}
	if large < 0.7 {
		t.Errorf("16K 2-way accuracy %.3f too low", large)
	}
}

func TestFig9SlopesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	o := Options{Warmup: 10_000, Measure: 30_000, Benchmarks: []string{"gcc"}}
	res, err := runFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig9Result)
	// On the large-footprint benchmark: TC must lose more from 128->8KB
	// than PR (the paper's latency-tolerance claim).
	tcLoss := 1 - r.At("TC", 8)/r.At("TC", 128)
	prLoss := 1 - r.At("PR-2x8w", 8)/r.At("PR-2x8w", 128)
	t.Logf("gcc: TC loss %.2f, PR loss %.2f", tcLoss, prLoss)
	if prLoss >= tcLoss {
		t.Errorf("PR loss %.2f not smaller than TC loss %.2f", prLoss, tcLoss)
	}
}

func TestConstructionClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := runConstruction(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "MEAN") {
		t.Errorf("missing summary row:\n%s", out)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	for _, id := range []string{"delayed", "switchonmiss", "fragsel"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		// bzip2 redirects delayed rename's PRd-4x4w while admitted
		// fragments still hold window reservations: unless the redirect
		// rebuilds the count, rename overfills the window.
		o := Options{Warmup: 5_000, Measure: 15_000, Benchmarks: []string{"gzip", "bzip2"}}
		res, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.String() == "" {
			t.Errorf("%s: empty output", id)
		}
	}
}
