package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/journal"
	"github.com/parallel-frontend/pfe/internal/obs"
)

func fakeResult(bench, config string, ipc float64) *pfe.Result {
	return &pfe.Result{Bench: bench, Config: config, IPC: ipc, Cycles: 1000, Committed: int64(ipc * 1000)}
}

// countingObserver is a FailureObserver that counts what a batch reports.
type countingObserver struct {
	mu                         sync.Mutex
	planned, completed, failed int
}

func (c *countingObserver) Planned(n int)         { c.mu.Lock(); c.planned += n; c.mu.Unlock() }
func (c *countingObserver) Failed(string, string) { c.mu.Lock(); c.failed++; c.mu.Unlock() }
func (c *countingObserver) Completed(string, string, time.Duration, *pfe.Result) {
	c.mu.Lock()
	c.completed++
	c.mu.Unlock()
}

// TestRunCellsFailedCellRunsOnceAsGap pins the failure policy at the
// scheduler layer: a failing cell runs exactly once, every other cell still
// runs, and the failed cell comes back as a Failed placeholder whose every
// float64 field is NaN, with a structured record in the Failures log and a
// Failed call on a FailureObserver. A caller that passes no log gets an
// error naming the failed cell instead.
func TestRunCellsFailedCellRunsOnceAsGap(t *testing.T) {
	var calls atomic.Int32
	mk := func() []cell {
		return []cell{
			{bench: "mcf", machine: pfe.Preset(pfe.W16), key: "doomed", exp: "exp1",
				run: func() (*pfe.Result, error) { calls.Add(1); panic("hard fault") }},
			{bench: "gzip", machine: pfe.Preset(pfe.W16), key: "ok",
				run: func() (*pfe.Result, error) { return fakeResult("gzip", "W16", 2.0), nil }},
		}
	}

	log := &FailureLog{}
	ob := &countingObserver{}
	o := Options{Workers: 1, Failures: log, Observer: ob}
	got, err := runCells(o, mk())
	if err != nil {
		t.Fatalf("a failed cell with a Failures log aborted the batch: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("failing cell ran %d times, want exactly 1", n)
	}
	if r := got[[2]string{"gzip", "ok"}]; r == nil || r.Failed || r.IPC != 2.0 {
		t.Errorf("healthy cell result = %+v", r)
	}
	ph := got[[2]string{"mcf", "doomed"}]
	if ph == nil || !ph.Failed || ph.Bench != "mcf" || ph.Config != "W16" {
		t.Fatalf("failed cell placeholder = %+v, want Failed=true for mcf/W16", ph)
	}
	v := reflect.ValueOf(*ph)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && !math.IsNaN(f.Float()) {
			t.Errorf("placeholder %s = %v, want NaN", v.Type().Field(i).Name, f.Float())
		}
	}
	if ob.planned != 2 || ob.completed != 1 || ob.failed != 1 {
		t.Errorf("observer saw %d planned, %d completed, %d failed; want 2, 1, 1",
			ob.planned, ob.completed, ob.failed)
	}
	fails := log.All()
	if len(fails) != 1 {
		t.Fatalf("failure log has %d records, want 1", len(fails))
	}
	f := fails[0]
	if f.Experiment != "exp1" || f.Bench != "mcf" || f.Key != "doomed" {
		t.Errorf("failure identity = %+v", f)
	}
	if !f.Panic || !strings.Contains(f.Error, "hard fault") {
		t.Errorf("failure detail = %+v, want panic, 'hard fault'", f)
	}
	if !strings.Contains(f.Stack, "runCell") && !strings.Contains(f.Stack, "safeRun") {
		t.Errorf("failure stack does not show the cell frame:\n%s", f.Stack)
	}

	// Same cells, no log: the batch errors, naming the failed cell.
	calls.Store(0)
	o.Failures = nil
	if _, err := runCells(o, mk()); err == nil || !strings.Contains(err.Error(), "mcf/doomed") ||
		!strings.Contains(err.Error(), "hard fault") {
		t.Fatalf("batch without a Failures log returned %v, want an error naming mcf/doomed", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("failing cell ran %d times without a log, want exactly 1", n)
	}
}

// TestDegradedSweepsPrintGaps runs degraded sweeps through Options.Inject
// on gcc and gzip and compares each printed table with the healthy run's
// table with the expected gaps marked: FAIL at the failed cell, at every
// cell computed over its result (a speedup over a failed W16 baseline) and
// at every mean over a column with a gap, and every other cell exactly as
// in the healthy run. No NaN, Inf, -100.00 or 0.00 stands in for a gap.
func TestDegradedSweepsPrintGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	base := Options{Warmup: 1_000, Measure: 4_000, Benchmarks: []string{"gcc", "gzip"}}
	nan := math.NaN()
	// gapsIn marks bench's cells under keys, and the keys' means, as gaps.
	gapsIn := func(bench string, keys ...string) func(fmt.Stringer) {
		return func(s fmt.Stringer) {
			r := s.(*SweepResult)
			for _, k := range keys {
				r.Values[[2]string{bench, k}] = nan
				r.Summary[k] = nan
			}
		}
	}
	cases := []struct {
		exp, inject string
		gaps        func(fmt.Stringer)
		fails       int // FAIL cells in the printed table
	}{
		{"fig8", "gcc/PR-2x8w=panic", gapsIn("gcc", "PR-2x8w"), 2},
		{"fig8", "gcc/W16=error", gapsIn("gcc", "TC", "TC2x", "PF-2x8w", "PR-2x8w", "PF-4x4w", "PR-4x4w"), 12},
		{"fig4", "gcc/W16=error", gapsIn("gcc", "W16"), 2},
		{"fig9", "gcc/W16@64KB=error", func(s fmt.Stringer) {
			// Every Fig 9 mean is over gcc's ratios to its failed baseline.
			for k := range s.(*Fig9Result).Speedup {
				s.(*Fig9Result).Speedup[k] = nan
			}
		}, 20},
	}
	for _, tc := range cases {
		t.Run(tc.exp+"/"+tc.inject, func(t *testing.T) {
			e, err := ByID(tc.exp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			inject, err := ParseInject(tc.inject)
			if err != nil {
				t.Fatal(err)
			}
			o := base
			o.Inject, o.Failures = inject, &FailureLog{}
			got, err := e.Run(o)
			if err != nil {
				t.Fatalf("degraded sweep returned %v, want its table", err)
			}
			if n := o.Failures.Len(); n != 1 {
				t.Errorf("%d failures logged, want 1", n)
			}
			tc.gaps(want)
			if got.String() != want.String() {
				t.Errorf("degraded table:\n%s\nwant:\n%s", got, want)
			}
			if n := strings.Count(got.String(), "FAIL"); n != tc.fails {
				t.Errorf("table prints FAIL %d times, want %d:\n%s", n, tc.fails, got)
			}
			for _, bad := range []string{"NaN", "Inf", "-100.00"} {
				if strings.Contains(got.String(), bad) {
					t.Errorf("table prints %q:\n%s", bad, got)
				}
			}
		})
	}
}

// TestRunCellsDrainsOnCancel pins graceful-shutdown semantics at the
// scheduler layer: cancelling the context mid-sweep returns the cells that
// completed, leaves the rest unrun (no placeholders, no failures), and
// wraps context.Canceled.
func TestRunCellsDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 40
	cells := make([]cell, n)
	var done atomic.Int32
	for i := range cells {
		i := i
		cells[i] = cell{
			bench: "gzip", machine: pfe.Preset(pfe.W16), key: fmt.Sprintf("c%02d", i),
			run: func() (*pfe.Result, error) {
				if done.Add(1) == 3 {
					cancel() // cancel from inside the third cell
				}
				return fakeResult("gzip", fmt.Sprintf("c%02d", i), 1.0), nil
			},
		}
	}
	o := Options{Workers: 1, Ctx: ctx}
	got, err := runCells(o, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("%d/%d cells completed; want a strict partial subset", len(got), n)
	}
	if int(done.Load()) != len(got) {
		t.Errorf("%d cells executed but %d results returned: drained cells must still report", done.Load(), len(got))
	}
	for k, r := range got {
		if r == nil || r.Failed {
			t.Errorf("completed cell %v = %+v", k, r)
		}
	}
}

// TestJournalResumeRoundTrip pins the resume contract end to end within the
// package: journal a sweep, reload it, and a resumed sweep must serve every
// cell from the journal (the run hook proves no re-execution) with
// bit-identical float results — then re-run when the content hash changes.
// The cells differ in machine, since the hash covers the machine and not
// the key.
func TestJournalResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "cells.journal")

	mkCells := func(reran *atomic.Int32) []cell {
		cells := make([]cell, 0, 4)
		for i := 0; i < 4; i++ {
			i := i
			cells = append(cells, cell{
				bench: "gzip", machine: pfe.Preset(pfe.W16).WithTotalL1I(8 << i), key: fmt.Sprintf("k%d", i), exp: "rt",
				run: func() (*pfe.Result, error) {
					if reran != nil {
						reran.Add(1)
					}
					// Awkward floats that must round-trip exactly.
					return fakeResult("gzip", "W16", 1.0/3.0+float64(i)*0.1), nil
				},
			})
		}
		return cells
	}

	w, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Workers: 2, Journal: w}
	first, err := runCells(o, mkCells(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("journal reported append errors: %v", err)
	}
	w.Close()

	res, err := LoadResume(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells() != 4 || res.Torn != 0 {
		t.Fatalf("resume index: %d cells, %d torn; want 4, 0", res.Cells(), res.Torn)
	}

	var reran atomic.Int32
	o2 := Options{Workers: 2, Resume: res}
	second, err := runCells(o2, mkCells(&reran))
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 0 {
		t.Fatalf("%d cells re-ran despite a complete journal", reran.Load())
	}
	if res.Replayed.Load() != 4 {
		t.Errorf("replayed = %d, want 4", res.Replayed.Load())
	}
	for k, want := range first {
		got := second[k]
		if got == nil {
			t.Fatalf("resumed sweep missing %v", k)
		}
		if got.IPC != want.IPC || got.Cycles != want.Cycles || got.Committed != want.Committed {
			t.Errorf("%v: replayed result differs: IPC %v vs %v", k, got.IPC, want.IPC)
		}
	}

	// Determinism cross-check: a different instruction budget changes the
	// config hash, so the journal must NOT be replayed.
	reran.Store(0)
	o3 := Options{Workers: 2, Resume: res, Warmup: 1, Measure: 2}
	if _, err := runCells(o3, mkCells(&reran)); err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 4 {
		t.Errorf("%d cells re-ran after config change, want all 4", reran.Load())
	}
	if res.Mismatched.Load() != 4 {
		t.Errorf("mismatched = %d, want 4", res.Mismatched.Load())
	}
}

// TestInjectStallProducesDiagnosticDump drives a real simulation through
// the "stall" injection mode: the watchdog must trip, the cell must fail
// with a StallError, and the failure record must reference a diagnostic
// dump whose header identifies the stall.
func TestInjectStallProducesDiagnosticDump(t *testing.T) {
	dir := t.TempDir()
	log := &FailureLog{}
	o := Options{
		Warmup: 1_000, Measure: 2_000, Workers: 1,
		Failures: log, DumpDir: dir,
		Inject: map[string]string{"gzip/W16": "stall"},
	}
	cells := []cell{{bench: "gzip", machine: pfe.Preset(pfe.W16), key: "W16"}}
	got, err := runCells(o, cells)
	if err != nil {
		t.Fatal(err)
	}
	if r := got[[2]string{"gzip", "W16"}]; r == nil || !r.Failed {
		t.Fatalf("injected cell result = %+v, want a Failed placeholder", r)
	}
	fails := log.All()
	if len(fails) != 1 {
		t.Fatalf("failure log has %d records, want 1", len(fails))
	}
	f := fails[0]
	if !strings.Contains(f.Error, "no commit") {
		t.Errorf("failure error %q does not describe the stall", f.Error)
	}
	if f.DumpPath == "" {
		t.Fatal("stall failure has no diagnostic dump path")
	}
	b, err := os.ReadFile(f.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "pfe stall diagnostic v1\n") {
		t.Errorf("dump does not start with the diagnostic header:\n%.200s", b)
	}
	if !strings.Contains(string(b), "reason: no-progress") {
		t.Errorf("dump missing stall reason:\n%.400s", b)
	}
}

// TestInjectPanicAndErrorModes covers the two remaining injection modes
// through a real cell config: both must fail and be distinguishable in
// their records.
func TestInjectPanicAndErrorModes(t *testing.T) {
	log := &FailureLog{}
	o := Options{
		Warmup: 1_000, Measure: 2_000, Workers: 2,
		Failures: log,
		Inject: map[string]string{
			"gzip/a": "panic",
			"mcf/b":  "error",
		},
	}
	cells := []cell{
		{bench: "gzip", machine: pfe.Preset(pfe.W16), key: "a"},
		{bench: "mcf", machine: pfe.Preset(pfe.W16), key: "b"},
	}
	if _, err := runCells(o, cells); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]obs.CellFailure{}
	for _, f := range log.All() {
		byKey[f.Key] = f
	}
	if f := byKey["a"]; !f.Panic || !strings.Contains(f.Error, "injected") {
		t.Errorf("panic injection record = %+v", f)
	}
	if f := byKey["b"]; f.Panic || !strings.Contains(f.Error, "injected") {
		t.Errorf("error injection record = %+v", f)
	}
}

// TestInProcessInjectRejectsUnknownAndKill pins the in-process side of the
// -inject contract for a map built without ParseInject: a mode safeRun does
// not implement — the worker-kill mode included — fails the cell loudly as
// unknown instead of silently running it clean.
func TestInProcessInjectRejectsUnknownAndKill(t *testing.T) {
	log := &FailureLog{}
	o := Options{
		Warmup: 1000, Measure: 2000, Workers: 1,
		Failures: log,
		Inject: map[string]string{
			"gzip/a": "kill",
			"mcf/b":  "frobnicate",
		},
	}
	cells := []cell{
		{bench: "gzip", machine: pfe.Preset(pfe.W16), key: "a"},
		{bench: "mcf", machine: pfe.Preset(pfe.W16), key: "b"},
	}
	got, err := runCells(o, cells)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]string{}
	for _, f := range log.All() {
		byKey[f.Key] = f.Error
	}
	for _, c := range cells {
		if msg := byKey[c.key]; !strings.Contains(msg, "unknown inject mode") {
			t.Errorf("%s/%s: failure error = %q, want an unknown inject mode failure", c.bench, c.key, msg)
		}
		if r := got[[2]string{c.bench, c.key}]; r == nil || !r.Failed {
			t.Errorf("%s/%s: result = %+v, want a Failed placeholder (the cell must not run clean)", c.bench, c.key, r)
		}
	}
}

// TestParseInject pins the -inject grammar: the three cell modes parse, and
// unknown modes and malformed entries are rejected instead of silently
// skipping the drill they were meant to run — including the worker-kill
// mode and network chaos rules, which have no meaning in one process.
func TestParseInject(t *testing.T) {
	cells, err := ParseInject("gzip/W16=panic, mcf/b=error,gcc/c=stall")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"gzip/W16": "panic", "mcf/b": "error", "gcc/c": "stall"}
	if len(cells) != len(want) {
		t.Fatalf("cells = %v, want %v", cells, want)
	}
	for k, v := range want {
		if cells[k] != v {
			t.Errorf("cells[%q] = %q, want %q", k, cells[k], v)
		}
	}

	bad := []string{
		"gzip/W16=frobnicate", // unknown cell mode
		"gzip/W16=kill",       // worker kill
		"gzip/W16=kill:3",     // worker kill with an epoch budget
		"net/report=drop",     // network chaos rule
		"gzipW16=panic",       // no bench/key separator
		"",                    // nothing parsed
		"gzip/W16",            // no mode at all
	}
	for _, in := range bad {
		if _, err := ParseInject(in); err == nil {
			t.Errorf("ParseInject(%q) accepted, want an error", in)
		}
	}
}

// TestResumeDuplicateKeepsLastRecord pins LoadResume's duplicate rule: when
// a simulation was journaled twice, the later append — the one acknowledged
// most recently — is the one replayed.
func TestResumeDuplicateKeepsLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dups.wal")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ipc := range []float64{2.5, 3.5} {
		rec := cellRecord{Exp: "e", Bench: "gzip", Key: "k", Hash: "h",
			Result: cellResult{Bench: "gzip", Config: "W16", IPC: ipc}}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	res, err := LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells() != 1 || res.Records != 2 {
		t.Fatalf("resume index: %d cells from %d records, want 1 from 2", res.Cells(), res.Records)
	}
	if r, ok := res.lookup(&cell{exp: "e", bench: "gzip", key: "k"}, "h"); !ok || r.IPC != 3.5 {
		t.Fatalf("lookup = %+v (ok=%v), want the last record (IPC 3.5)", r, ok)
	}
}

// TestResumeLegacyEpochJournalBitIdentical pins compatibility with journals
// written by earlier binaries, whose records carry an "epoch" field: such a
// journal still resumes, every cell replays, and the rendered output is
// identical to the run that wrote it.
func TestResumeLegacyEpochJournalBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	dir := t.TempDir()
	o := Options{Warmup: 1000, Measure: 2000, Benchmarks: []string{"gzip"}}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	orig := filepath.Join(dir, "orig.wal")
	w, err := journal.Create(orig)
	if err != nil {
		t.Fatal(err)
	}
	run1 := o
	run1.Journal = w
	res1, err := e.Run(run1)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	legacy := filepath.Join(dir, "legacy.wal")
	lw, err := journal.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := journal.Scan(orig, func(p []byte) error {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		rec["epoch"] = json.RawMessage("2")
		return lw.Append(rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	lw.Close()
	if n == 0 {
		t.Fatal("original run journaled nothing")
	}

	res, err := LoadResume(legacy)
	if err != nil {
		t.Fatal(err)
	}
	run2 := o
	run2.Resume = res
	res2, err := e.Run(run2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed.Load() != int64(n) || res.Mismatched.Load() != 0 {
		t.Errorf("replayed %d/%d cells (%d mismatched); the whole sweep must replay",
			res.Replayed.Load(), n, res.Mismatched.Load())
	}
	if res1.String() != res2.String() {
		t.Errorf("resumed output differs:\n--- original\n%s\n--- resumed\n%s", res1, res2)
	}
}
