package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/parallel-frontend/pfe/internal/obs"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// bin builds the pfe-bench binary once per test run.
func bin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pfe-bench-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "pfe-bench")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building pfe-bench: %v", buildErr)
	}
	return binPath
}

// benchArgs is the experiment slice shared by the integration tests: small
// budgets, serial workers (so a kill interrupts a predictable prefix), no
// progress log noise.
func benchArgs(extra ...string) []string {
	args := []string{
		"-exp", "fig4", "-benches", "gzip,mcf,gcc,twolf",
		"-warmup", "2000", "-measure", "8000",
		"-workers", "1", "-progress=false",
	}
	return append(args, extra...)
}

// rowsOf extracts the deterministic part of a report — the sorted result
// rows — which must be unaffected by kills, resumes and wall-clock noise.
// The span-derived timing breakdown is wall-clock by definition, so it is
// stripped before the bit-identity comparison.
func rowsOf(t *testing.T, path string) string {
	t.Helper()
	rep, err := obs.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []obs.Row
	for _, e := range rep.Experiments {
		for _, r := range e.Rows {
			r.Timing = nil
			rows = append(rows, r)
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKillResumeBitIdentical is the crash-safety acceptance test: a sweep
// SIGKILLed mid-run, then resumed from its journal, must produce a report
// whose result rows are byte-for-byte identical to an uninterrupted run's —
// journaled floats round-trip exactly and replay fills the gap. The drill
// only counts if the kill landed, the resumed run replayed the journaled
// cells, and it simulated at least one of the rest itself.
func TestKillResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()

	// Reference: one uninterrupted run.
	fullJSON := filepath.Join(dir, "full.json")
	cmd := exec.Command(pb, benchArgs("-json", fullJSON)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted run: %v\n%s", err, out)
	}

	// Victim: same sweep with a journal, SIGKILLed once the journal shows
	// at least two durable records (mid-sweep, past the first cell).
	wal := filepath.Join(dir, "run.wal")
	victim := exec.Command(pb, benchArgs("-journal", wal)...)
	victim.Stdout, victim.Stderr = nil, nil
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(wal); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			victim.Process.Kill()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := victim.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("victim exit = %v, want SIGKILL mid-sweep", err)
	}

	// Resume: replay the journal, run the remainder, write the report.
	resumedJSON := filepath.Join(dir, "resumed.json")
	var stderr bytes.Buffer
	resume := exec.Command(pb, benchArgs("-resume", wal, "-json", resumedJSON)...)
	resume.Stderr = &stderr
	if err := resume.Run(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, stderr.String())
	}
	m := regexp.MustCompile(`resume: replayed (\d+) cell`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("resumed run did not replay journaled cells:\n%s", stderr.String())
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("resumed run replayed %d cell(s), want at least the 2 journaled before the kill", n)
	}

	full, resumed := rowsOf(t, fullJSON), rowsOf(t, resumedJSON)
	if full != resumed {
		t.Errorf("resumed rows differ from uninterrupted rows:\nfull:    %.400s\nresumed: %.400s", full, resumed)
	}
	rep, err := obs.ReadReportFile(resumedJSON)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || len(rep.Failures) != 0 {
		t.Errorf("resumed report partial=%v failures=%d, want a complete clean report", rep.Partial, len(rep.Failures))
	}
	simulated := 0
	for _, e := range rep.Experiments {
		for _, r := range e.Rows {
			if r.Timing != nil && r.Timing.SimSeconds > 0 {
				simulated++
			}
		}
	}
	if simulated == 0 {
		t.Error("resumed run simulated no cell itself: every post-kill row was served, not run")
	}
}

// tableCells parses the table titled title from pfe-bench's stdout into
// row label → column header → printed cell.
func tableCells(t *testing.T, stdout, title string) map[string]map[string]string {
	t.Helper()
	_, body, ok := strings.Cut(stdout, "== "+title+" ==\n")
	if !ok {
		t.Fatalf("stdout has no %q table:\n%s", title, stdout)
	}
	lines := strings.Split(body, "\n")
	header := strings.Fields(lines[0])
	cells := map[string]map[string]string{}
	for _, ln := range lines[2:] { // lines[1] is the rule under the header
		f := strings.Fields(ln)
		if len(f) != len(header) {
			break // the note below the table
		}
		cells[f[0]] = map[string]string{}
		for i := 1; i < len(f); i++ {
			cells[f[0]][header[i]] = f[i]
		}
	}
	return cells
}

// progressLine matches one stderr progress line: experiment, completed and
// planned cells.
var progressLine = regexp.MustCompile(`\[(\w+)\] (\d+)/(\d+) sims[^\n]*`)

// TestInjectedFaultsPrintGapsAndExit1 is the degraded-mode acceptance test:
// a two-experiment run with one panicking and one genuinely deadlocking
// (watchdog-tripped) simulation still prints both tables, with FAIL at each
// failed cell, at every speedup over a failed baseline and at every mean
// over a gap, and every other cell as in a healthy run. Both experiments
// read both simulations, and each runs once: the run lists two failures on
// stderr and in the report's failures block, each naming Fig 4 (its first
// requester), counts them as done in the one sweep's progress lines, leaves
// the stall's diagnostic dump on disk, and exits 1.
func TestInjectedFaultsPrintGapsAndExit1(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "faulty.json")
	exps := []string{"-exp", "fig4,fig8"}

	healthy, err := exec.Command(pb, benchArgs(exps...)...).Output()
	if err != nil {
		t.Fatalf("healthy sweep: %v", err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(pb, benchArgs(append(exps,
		"-json", jsonOut,
		"-inject", "gzip/W16=panic,mcf/TC=stall",
		"-dump-dir", dir,
		"-progress",
	)...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("faulty sweep exit = %v, want 1\n%s", err, stderr.String())
	}

	// gzip/W16 and mcf/TC fail once, and both experiments read them: Fig
	// 8's speedups are over W16, so gzip's whole row is a gap there.
	gaps := map[string][]string{
		"Figure 4: Fetch Slot Utilization": {"gzip/W16", "mcf/TC", "MEAN/W16", "MEAN/TC"},
		"Figure 8: Performance (% speedup over W16)": {
			"gzip/TC", "gzip/TC2x", "gzip/PF-2x8w", "gzip/PR-2x8w", "gzip/PF-4x4w", "gzip/PR-4x4w",
			"mcf/TC", "MEAN/TC", "MEAN/TC2x", "MEAN/PF-2x8w", "MEAN/PR-2x8w", "MEAN/PF-4x4w", "MEAN/PR-4x4w",
		},
	}
	for title, want := range gaps {
		isGap := map[string]bool{}
		for _, g := range want {
			isGap[g] = true
		}
		ref, got := tableCells(t, string(healthy), title), tableCells(t, stdout.String(), title)
		if len(got) != len(ref) || len(ref) != 5 { // four benchmarks and MEAN
			t.Fatalf("%s: %d rows, healthy %d, want 5:\n%s", title, len(got), len(ref), stdout.String())
		}
		for row, cols := range ref {
			for col, v := range cols {
				switch g := got[row][col]; {
				case isGap[row+"/"+col] && g != "FAIL":
					t.Errorf("%s: %s/%s = %q, want FAIL", title, row, col, g)
				case !isGap[row+"/"+col] && g != v:
					t.Errorf("%s: %s/%s = %q, want the healthy %q", title, row, col, g, v)
				}
			}
		}
	}
	if n := strings.Count(stderr.String(), "cell failed: "); n != 2 {
		t.Errorf("stderr lists %d failed cells, want 2:\n%s", n, stderr.String())
	}
	// A failed cell is done: the sweep's progress, one [sweep] family, ends
	// at its planned total and names its two failures.
	lines := progressLine.FindAllStringSubmatch(stderr.String(), -1)
	if len(lines) == 0 {
		t.Fatalf("no progress lines:\n%s", stderr.String())
	}
	for _, m := range lines {
		if m[1] != "sweep" {
			t.Errorf("progress line %q, want only [sweep] lines", m[0])
		}
	}
	if m := lines[len(lines)-1]; m[2] != m[3] || !strings.Contains(m[0], "(2 failed)") {
		t.Errorf("last progress line %q, want N/N sims with (2 failed)", m[0])
	}

	rep, err := obs.ReadReportFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("report with failures not marked partial")
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("report has %d failures, want 2:\n%+v", len(rep.Failures), rep.Failures)
	}
	byKey := map[string]obs.CellFailure{}
	for _, f := range rep.Failures {
		byKey[f.Experiment+" "+f.Bench+"/"+f.Key] = f
	}
	p := byKey["fig4 gzip/W16"]
	if !p.Panic || !strings.Contains(p.Error, "injected") {
		t.Errorf("panic failure record = %+v", p)
	}
	s := byKey["fig4 mcf/TC"]
	if s.Panic || !strings.Contains(s.Error, "no commit") {
		t.Errorf("stall failure record = %+v", s)
	}
	if s.DumpPath == "" {
		t.Fatal("stall failure carries no diagnostic dump")
	}
	b, err := os.ReadFile(s.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "pfe stall diagnostic v1\n") {
		t.Errorf("dump header wrong:\n%.200s", b)
	}
}

// TestFlagValidation pins the CLI's usage-error contract: an unknown
// -inject mode, a negative -workers, an unknown or repeated benchmark, a
// repeated experiment, every option of the removed distributed-sweep path,
// the removed retry and failure-budget flags, the removed live-telemetry
// flags, the removed time-parallel slicing flags and the removed
// artifact-cache switch exit 2 with an explanation instead of silently
// running something else.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown inject mode", benchArgs("-inject", "gzip/W16=frobnicate"), "mode must be"},
		{"kill inject mode", benchArgs("-inject", "gzip/W16=kill"), "mode must be"},
		{"network chaos rule", benchArgs("-inject", "net/report=drop"), "mode must be"},
		{"local fleet", benchArgs("-local", "2"), "flag provided but not defined: -local"},
		{"coordinator", benchArgs("-coordinator", ":0"), "flag provided but not defined: -coordinator"},
		{"worker", benchArgs("-worker", "http://127.0.0.1:1"), "flag provided but not defined: -worker"},
		{"max retries", benchArgs("-max-retries", "1"), "flag provided but not defined: -max-retries"},
		{"fail budget", benchArgs("-fail-budget", "2"), "flag provided but not defined: -fail-budget"},
		{"http", benchArgs("-http", ":0"), "flag provided but not defined: -http"},
		{"events", benchArgs("-events"), "flag provided but not defined: -events"},
		{"slices", benchArgs("-slices", "8"), "flag provided but not defined: -slices"},
		{"slice warmup", benchArgs("-slice-warmup", "1000"), "flag provided but not defined: -slice-warmup"},
		{"negative workers", benchArgs("-workers", "-1"), "-workers -1: want a non-negative worker count"},
		{"unknown benchmark", []string{"-exp", "fig4", "-benches", "gzip,foo"}, `no benchmark named "foo" (have bzip2, `},
		{"repeated benchmark", []string{"-exp", "fig4", "-benches", "gcc,gzip,gcc"}, "-benches: gcc is listed twice"},
		{"repeated experiment", []string{"-exp", "fig4,fig8,fig4", "-benches", "gzip"}, "-exp: fig4 is listed twice"},
		{"no artifact cache", benchArgs("-no-artifact-cache"), "flag provided but not defined: -no-artifact-cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(pb, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("exit = %v, want usage error (2); stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not explain the rejection (want %q)", stderr.String(), tc.want)
			}
		})
	}
}

// TestSampledSweepReport smokes the sampled sweep end to end: -sample runs
// the experiment over tape windows, and the report's run spec records the
// sampling parameters so its rows are never mistaken for exact IPCs.
func TestSampledSweepReport(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	jsonOut := filepath.Join(t.TempDir(), "sampled.json")
	args := []string{
		"-exp", "fig4", "-benches", "gzip,mcf",
		"-warmup", "3000", "-measure", "30000",
		"-sample", "-sample-unit", "1000", "-sample-period", "5000", "-sample-warmup", "1500",
		"-progress=false", "-json", jsonOut,
	}
	if out, err := exec.Command(pb, args...).CombinedOutput(); err != nil {
		t.Fatalf("sampled sweep: %v\n%s", err, out)
	}
	rep, err := obs.ReadReportFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Options.SampleUnit != 1000 || rep.Options.SamplePeriod != 5000 || rep.Options.SampleWarmup != 1500 {
		t.Errorf("report run spec lost the sampling parameters: %+v", rep.Options)
	}
	var rows int
	for _, e := range rep.Experiments {
		for _, r := range e.Rows {
			rows++
			if r.IPC <= 0 {
				t.Errorf("%s/%s: sampled IPC %v, want positive", r.Bench, r.Config, r.IPC)
			}
		}
	}
	if rows == 0 {
		t.Error("sampled sweep produced no rows")
	}
}

// TestSigintWritesPartialReport pins graceful shutdown end to end: SIGINT
// mid-sweep exits 130 with a valid JSON report marked partial.
func TestSigintWritesPartialReport(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "partial.json")
	wal := filepath.Join(dir, "partial.wal")

	cmd := exec.Command(pb, benchArgs("-json", jsonOut, "-journal", wal)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt once the first result is durable, so the partial report has
	// something in it.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(wal); err == nil && bytes.Count(b, []byte("\n")) >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		// The sweep finished before the signal landed; nothing to assert.
		t.Skip("sweep completed before SIGINT arrived")
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("exit = %v, want code 130\n%s", err, stderr.String())
	}
	rep, err := obs.ReadReportFile(jsonOut)
	if err != nil {
		t.Fatalf("interrupted run left no readable report: %v\n%s", err, stderr.String())
	}
	if !rep.Partial {
		t.Error("interrupted report not marked partial")
	}
}
