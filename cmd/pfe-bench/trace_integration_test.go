package main_test

// Sweep-trace integration tests: -sweep-trace must not perturb simulation
// results (traced and untraced runs are bit-identical), and its output must
// be a valid Chrome trace with the documented track layout (pid 0 = harness,
// one pid per worker, one tid per cell).

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/parallel-frontend/pfe/internal/obs"
)

// TestTracingDoesNotPerturbResults is the golden determinism gate: the same
// sweep run untraced, traced to a Chrome file, and traced with more workers
// must produce byte-for-byte identical result rows.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()

	runOnce := func(name string, extra ...string) string {
		out := filepath.Join(dir, name+".json")
		args := benchArgs(append([]string{"-json", out}, extra...)...)
		if b, err := exec.Command(pb, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s run: %v\n%s", name, err, b)
		}
		return out
	}

	plain := runOnce("plain")
	traced := runOnce("traced", "-sweep-trace", filepath.Join(dir, "sweep.json"))
	traced8 := runOnce("traced8", "-sweep-trace", filepath.Join(dir, "sweep8.json"), "-workers", "8")

	want := rowsOf(t, plain)
	if got := rowsOf(t, traced); got != want {
		t.Errorf("traced rows differ from untraced rows:\nplain:  %.300s\ntraced: %.300s", want, got)
	}
	if got := rowsOf(t, traced8); got != want {
		t.Errorf("traced 8-worker rows differ from untraced serial rows:\nplain:   %.300s\ntraced8: %.300s", want, got)
	}
}

// TestSweepTraceFileShape runs a real sweep with -sweep-trace and checks the
// emitted file is a loadable Chrome trace: JSON object with a traceEvents
// array, process metadata for the harness and each worker, cell spans as
// complete ("X") events, and the simulation phases nested inside them.
func TestSweepTraceFileShape(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "sweep.json")
	jsonPath := filepath.Join(dir, "report.json")
	args := benchArgs("-sweep-trace", tracePath, "-json", jsonPath, "-workers", "2")
	if b, err := exec.Command(pb, args...).CombinedOutput(); err != nil {
		t.Fatalf("traced run: %v\n%s", err, b)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("-sweep-trace output is not Chrome trace JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("-sweep-trace output has no events")
	}

	var harnessNamed, workerNamed, sweepSpan, cellSpan, simPhase bool
	pids := map[int]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			if name, _ := ev.Args["name"].(string); name == "harness" && ev.PID == 0 {
				harnessNamed = true
			} else if strings.HasPrefix(name, "worker ") {
				workerNamed = true
			}
			continue
		}
		if ev.Phase != "X" {
			continue
		}
		pids[ev.PID] = true
		switch ev.Args["kind"] {
		case "sweep":
			sweepSpan = true
		case "cell":
			cellSpan = true
			if ev.TID == 0 {
				t.Errorf("cell span on tid 0 (reserved for batch-level spans): %+v", ev)
			}
		case "phase":
			if ev.Name == "sim" {
				simPhase = true
			}
		}
		if ev.Dur <= 0 {
			t.Errorf("complete event %q has non-positive dur %v", ev.Name, ev.Dur)
		}
	}
	if !harnessNamed || !workerNamed {
		t.Errorf("missing process metadata: harness=%v worker=%v", harnessNamed, workerNamed)
	}
	if !sweepSpan || !cellSpan || !simPhase {
		t.Errorf("missing span kinds: sweep=%v cell=%v sim-phase=%v", sweepSpan, cellSpan, simPhase)
	}
	if len(pids) < 2 {
		t.Errorf("trace uses %d process tracks, want harness + at least one worker", len(pids))
	}

	// The traced -json report carries the per-cell timing breakdown.
	rep, err := obs.ReadReportFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	timed := 0
	for _, e := range rep.Experiments {
		for _, r := range e.Rows {
			if r.Timing != nil {
				timed++
				total := r.Timing.BuildSeconds + r.Timing.SimSeconds + r.Timing.OverheadSeconds
				if r.Timing.SimSeconds <= 0 || total <= 0 {
					t.Errorf("row %s/%s timing breakdown empty: %+v", r.Bench, r.Config, *r.Timing)
				}
			}
		}
	}
	if timed == 0 {
		t.Error("no report row carries a timing breakdown")
	}
}
