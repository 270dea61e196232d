package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// fixtureReport builds a report with one experiment ("fig8") whose rows have
// the given bench→IPC values, and the given aggregate sims/sec.
func fixtureReport(ipc map[string]float64, simsPerSec float64) *Report {
	b := NewReportBuilder("pfe-bench", RunSpec{WarmupInsts: 1, MeasureInsts: 2, Experiments: []string{"fig8"}})
	b.StartExperiment("fig8", "Figure 8: Performance")
	for bench, v := range ipc {
		b.AddRow("fig8", Row{Bench: bench, Config: "PR-2x8w", IPC: v, Cycles: 100, Committed: int64(100 * v)})
	}
	rep := b.Finalize(2 * time.Second)
	rep.SimsPerSec = simsPerSec
	return rep
}

func TestReportRoundTrip(t *testing.T) {
	rep := fixtureReport(map[string]float64{"gcc": 3.5, "gzip": 4.25}, 10)
	rep.StageSeconds = map[string]float64{"fetch": 1.5, "backend": 3}

	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", got.SchemaVersion, SchemaVersion)
	}
	if got.Tool != "pfe-bench" || got.TotalSims != 2 {
		t.Errorf("Tool/TotalSims = %q/%d, want pfe-bench/2", got.Tool, got.TotalSims)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].ID != "fig8" || len(got.Experiments[0].Rows) != 2 {
		t.Fatalf("experiments did not round-trip: %+v", got.Experiments)
	}
	// Finalize sorts rows by bench: gcc before gzip.
	rows := got.Experiments[0].Rows
	if rows[0].Bench != "gcc" || rows[0].IPC != 3.5 || rows[1].Bench != "gzip" || rows[1].IPC != 4.25 {
		t.Errorf("rows did not round-trip sorted: %+v", rows)
	}
	if got.StageSeconds["backend"] != 3 {
		t.Errorf("StageSeconds did not round-trip: %v", got.StageSeconds)
	}
	if got.Provenance.GoVersion == "" || got.Provenance.GitSHA == "" {
		t.Errorf("provenance not stamped: %+v", got.Provenance)
	}
}

func TestDecodeReportRejectsSchemaMismatch(t *testing.T) {
	rep := fixtureReport(map[string]float64{"gcc": 3.5}, 10)
	rep.SchemaVersion = SchemaVersion + 1
	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(&buf); err == nil {
		t.Fatal("decoding a future schema version should fail")
	} else if !strings.Contains(err.Error(), "schema version") {
		t.Errorf("error should name the schema version: %v", err)
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 3.5, "gzip": 4.25}, 10)
	new := fixtureReport(map[string]float64{"gcc": 3.5, "gzip": 4.25}, 10)
	c := Compare(old, new, DefaultCompareOptions())
	if c.ExitCode() != 0 {
		t.Errorf("identical reports: exit %d, want 0\n%s", c.ExitCode(), c.Table())
	}
	if !strings.Contains(c.Table(), "RESULT: PASS") {
		t.Errorf("table should say PASS:\n%s", c.Table())
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 3.5}, 10)
	new := fixtureReport(map[string]float64{"gcc": 3.85}, 10) // +10%
	c := Compare(old, new, DefaultCompareOptions())
	if c.ExitCode() != 0 {
		t.Errorf("improvement: exit %d, want 0\n%s", c.ExitCode(), c.Table())
	}
	if c.Improvements != 1 {
		t.Errorf("Improvements = %d, want 1", c.Improvements)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 1000}, 10)
	new := fixtureReport(map[string]float64{"gcc": 996}, 10) // -0.4%, inside 0.5%
	c := Compare(old, new, DefaultCompareOptions())
	if c.ExitCode() != 0 {
		t.Errorf("within tolerance: exit %d, want 0\n%s", c.ExitCode(), c.Table())
	}
}

func TestCompareRegressionFails(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 4.0, "gzip": 4.0}, 10)
	new := fixtureReport(map[string]float64{"gcc": 3.8, "gzip": 4.0}, 10) // gcc -5%
	c := Compare(old, new, DefaultCompareOptions())
	if c.ExitCode() != 1 {
		t.Fatalf("5%% IPC drop: exit %d, want 1", c.ExitCode())
	}
	tbl := c.Table()
	for _, want := range []string{"gcc", "REGRESSION", "-5.00%", "RESULT: REGRESSION"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestCompareMissingRowFails(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 4.0, "gzip": 4.0}, 10)
	new := fixtureReport(map[string]float64{"gcc": 4.0}, 10)
	c := Compare(old, new, DefaultCompareOptions())
	if c.ExitCode() != 1 {
		t.Errorf("vanished row: exit %d, want 1 (coverage must not shrink silently)", c.ExitCode())
	}
	if c.Missing != 1 || !strings.Contains(c.Table(), "MISSING") {
		t.Errorf("Missing = %d, table:\n%s", c.Missing, c.Table())
	}
}

func TestCompareZeroToleranceIsExact(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 1000}, 10)
	new := fixtureReport(map[string]float64{"gcc": 999.9}, 10) // -0.01%
	c := Compare(old, new, CompareOptions{IPCTolPct: 0, ThroughputTolPct: 25})
	if c.Opts.IPCTolPct != 0 {
		t.Fatalf("explicit zero tolerance coerced to %v", c.Opts.IPCTolPct)
	}
	if c.ExitCode() != 1 {
		t.Errorf("-tol 0 with any IPC drop: exit %d, want 1\n%s", c.ExitCode(), c.Table())
	}
	// Negative still means "use the default": -0.01% passes at 0.5%.
	if c2 := Compare(old, new, CompareOptions{IPCTolPct: -1, ThroughputTolPct: -1}); c2.ExitCode() != 0 {
		t.Errorf("default tolerance: exit %d, want 0\n%s", c2.ExitCode(), c2.Table())
	}
}

func TestCompareNotesSkippedThroughputGate(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 4.0}, 10)
	new := fixtureReport(map[string]float64{"gcc": 4.0}, 0) // no sims_per_sec
	c := Compare(old, new, DefaultCompareOptions())
	if c.ThroughputRegressed {
		t.Error("gate cannot judge a zero sims/sec side")
	}
	if tbl := c.Table(); !strings.Contains(tbl, "SKIPPED") {
		t.Errorf("table should note the skipped throughput gate:\n%s", tbl)
	}
}

func TestCompareThroughputCollapseFails(t *testing.T) {
	old := fixtureReport(map[string]float64{"gcc": 4.0}, 10)
	new := fixtureReport(map[string]float64{"gcc": 4.0}, 5) // -50% sims/sec
	c := Compare(old, new, DefaultCompareOptions())
	if c.ExitCode() != 1 {
		t.Errorf("host throughput -50%%: exit %d, want 1", c.ExitCode())
	}
	// A small throughput wobble stays inside the loose default tolerance.
	new2 := fixtureReport(map[string]float64{"gcc": 4.0}, 9)
	if c2 := Compare(old, new2, DefaultCompareOptions()); c2.ExitCode() != 0 {
		t.Errorf("host throughput -10%%: exit %d, want 0", c2.ExitCode())
	}
}

// TestRecordedLegacyReportsDecode pins compatibility with the checked-in
// BENCH_PR9.json and BENCH_PR10.json: they carry the scheduler.fabric and
// top-level fabric blocks of the distributed-sweep path, which this schema
// no longer defines, and must still decode — and still match BENCH_PR8.json
// row for row.
func TestRecordedLegacyReportsDecode(t *testing.T) {
	for _, path := range []string{"../../BENCH_PR9.json", "../../BENCH_PR10.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"fabric": `)) {
			t.Fatalf("%s carries no fabric block; the test no longer covers the legacy fields", path)
		}
		if _, err := ReadReportFile(path); err != nil {
			t.Errorf("decoding %s: %v", path, err)
		}
	}

	old, err := ReadReportFile("../../BENCH_PR8.json")
	if err != nil {
		t.Fatal(err)
	}
	new, err := ReadReportFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	c := Compare(old, new, CompareOptions{IPCTolPct: 0, ThroughputTolPct: 25})
	if c.Compared != 84 || c.Regressions != 0 || c.Improvements != 0 || c.Missing != 0 || c.ExitCode() != 0 {
		t.Errorf("BENCH_PR8.json vs BENCH_PR10.json: want 84 rows ok\n%s", c.Table())
	}
}
