package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
// journaled floats round-trip exactly and replay fills the gap.
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
	killed := false
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(wal); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			if err := victim.Process.Kill(); err == nil {
				killed = true
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := victim.Wait()
	if !killed {
		// The sweep finished before two records appeared — resume will
		// simply replay everything, which still exercises the round trip.
		if err != nil {
			t.Fatalf("victim was never killed yet failed: %v", err)
		}
	} else {
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("victim exit = %v, want SIGKILL", err)
		}
	}

	// Resume: replay the journal, run the remainder, write the report.
	resumedJSON := filepath.Join(dir, "resumed.json")
	var stderr bytes.Buffer
	resume := exec.Command(pb, benchArgs("-resume", wal, "-json", resumedJSON)...)
	resume.Stderr = &stderr
	if err := resume.Run(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume: replayed") {
		t.Errorf("resumed run did not replay journaled cells:\n%s", stderr.String())
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
}

// TestInjectedFaultsStayUnderBudget is the degraded-mode acceptance test: a
// sweep with one panicking and one genuinely deadlocking (watchdog-tripped)
// cell must still exit 0 under a failure budget of two, with both failures
// in the report's failures block and the stall's diagnostic dump on disk.
func TestInjectedFaultsStayUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "faulty.json")

	var stderr bytes.Buffer
	cmd := exec.Command(pb, benchArgs(
		"-json", jsonOut,
		"-inject", "gzip/W16=panic,mcf/TC=stall",
		"-max-retries", "1", "-fail-budget", "2",
		"-dump-dir", dir,
	)...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("faulty sweep did not exit 0: %v\n%s", err, stderr.String())
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
		byKey[f.Bench+"/"+f.Key] = f
	}
	p := byKey["gzip/W16"]
	if !p.Panic || p.Attempts != 2 || !strings.Contains(p.Error, "injected") {
		t.Errorf("panic failure record = %+v", p)
	}
	s := byKey["mcf/TC"]
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

// TestSampleSlicesUsageError pins the flag gate end to end: -sample
// combined with -slices > 1 is a usage error (exit 2) diagnosed before any
// simulation starts, with an explanation on stderr.
func TestSampleSlicesUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	out, err := exec.Command(pb, benchArgs("-sample", "-slices", "4")...).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want usage error code 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "mutually exclusive") {
		t.Errorf("stderr does not explain the conflict:\n%s", out)
	}
}

// TestFlagValidation pins the CLI's usage-error contract: an unknown
// -inject mode, and every option of the removed distributed-sweep path,
// exits 2 with an explanation instead of silently running something else.
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
