// pfe-bench regenerates the paper's tables and figures, with progress lines
// on stderr, machine-readable provenance reports, a perf-regression
// comparator, and a fault-tolerant sweep harness (crash-safe journal,
// resume, failed cells as gaps, graceful shutdown).
//
// Usage:
//
//	pfe-bench -list
//	pfe-bench -exp fig8
//	pfe-bench -exp all -warmup 100000 -measure 300000
//	pfe-bench -exp fig9 -benches gcc,gzip
//	pfe-bench -exp fig4,fig8                    # one sweep over both experiments' cells
//	pfe-bench -exp fig8 -json out.json          # provenance-stamped report
//	pfe-bench -exp all -journal run.wal         # crash-safe result journal
//	pfe-bench -exp all -resume run.wal          # replay it after a crash/kill
//	pfe-bench -exp fig8 -inject gcc/W16=panic   # drill: the cell prints FAIL, exit 1
//	pfe-bench -tol 0.5 -compare old.json new.json
//	pfe-bench -exp fig8 -sample                 # systematic sampling (IPC ± CI)
//	pfe-bench -validate-sampling                # sampled-vs-full error gate
//	pfe-bench -exp fig8 -sweep-trace sweep.json # Perfetto-loadable sweep trace
//	pfe-bench -exp fig8 -selfprofile            # simulator time per pipeline stage
//
// A run is one sweep: the cells of every experiment in -exp are planned
// together, and each distinct simulation (benchmark, budgets, machine,
// sampling) runs once, however many experiments read it; every table then
// renders from the one result set, in -exp order. Table 1, Table 2 and Fig 7
// run on their own after it. An unknown or repeated experiment id or
// benchmark is a usage error (exit 2).
//
// A sweep's parallelism comes from its cells: up to -workers simulations
// run at once, each on one goroutine, and a negative -workers is a usage
// error. -sample accelerates every simulation of a sweep by replaying
// oracle tapes: it simulates detailed windows (-sample-unit every
// -sample-period, after -sample-warmup) and fast-forwards the gaps.
// -validate-sampling runs the accuracy gate behind the sampled numbers:
// full vs sampled on every selected benchmark, failing when an error
// exceeds its 95% CI.
//
// -compare exits 0 when every matched benchmark row is within tolerance
// (improvements included), 1 on an IPC or throughput regression, 2 on a
// usage or decoding error.
//
// A simulation runs once. A failed one (panic, error or watchdog stall)
// prints as FAIL in every table that reads it, and so does every number
// derived from it: a speedup over it, a mean over its column. The run still
// finishes every experiment, prints one "cell failed:" line per failed
// simulation on stderr, naming the first experiment that requested it, and
// exits 1.
//
// A sweep is reported after it ends. While it runs, only "[sweep] N/M sims"
// progress lines with an ETA go to stderr (at most one a second, and the
// last); they count replayed and failed cells as done. Once it is done,
// -json, -sweep-trace and -selfprofile describe it. -selfprofile sums the
// stage times of the cells that simulated; a replayed cell adds nothing.
//
// SIGINT/SIGTERM drain the sweep: in-flight simulations finish, the journal
// is flushed, a -json report is still written (marked "partial": true), and
// the process exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/experiments"
	"github.com/parallel-frontend/pfe/internal/journal"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/obs/span"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		exp     = flag.String("exp", "all", "comma-separated experiment ids, run as one sweep (see -list), or all")
		warmup  = flag.Int64("warmup", 100_000, "warmup instructions per simulation")
		measure = flag.Int64("measure", 300_000, "measured instructions per simulation")
		benches = flag.String("benches", "", "comma-separated benchmark subset (default: all twelve)")
		workers = flag.Int("workers", 0, "concurrent simulations (default GOMAXPROCS)")

		jsonOut  = flag.String("json", "", "write a provenance-stamped JSON benchmark report to this file")
		selfProf = flag.Bool("selfprofile", false, "attribute the simulator's own wall time per pipeline stage (sampled)")
		progress = flag.Bool("progress", true, "print the sweep's progress lines with ETA to stderr")

		compare = flag.Bool("compare", false, "compare two JSON reports (old new) and exit non-zero on regression")
		tol     = flag.Float64("tol", 0.5, "IPC regression tolerance for -compare, percent")
		ttol    = flag.Float64("ttol", 25, "host-throughput (sims/sec) regression tolerance for -compare, percent")

		journalPath = flag.String("journal", "", "append every completed cell to this crash-safe journal (fsynced JSONL WAL)")
		resumePath  = flag.String("resume", "", "replay completed cells from this journal, run the rest, and append to it")
		dumpDir     = flag.String("dump-dir", "", "directory for watchdog stall diagnostics (default: OS temp dir)")
		stallCycles = flag.Uint64("stall-cycles", 0, "watchdog threshold: fail a simulation after this many cycles without a commit (0 = simulator default)")
		flightRec   = flag.Int("flight-recorder", 0, "keep the last N pipeline events per simulation for stall diagnostics (0 = off)")
		inject      = flag.String("inject", "", "fault injection: comma-separated bench/key=mode with mode panic|error|stall (testing the harness itself)")

		artifactMem = flag.Int64("artifact-mem", 512, "artifact cache cap in MiB (shared program images, oracle tapes, union warm packs; LRU past the cap; 0 = unbounded)")

		sweepTrace = flag.String("sweep-trace", "", "write the sweep's span trace to this file: Chrome trace_event JSON (load in Perfetto/chrome://tracing), or NDJSON when the name ends in .ndjson/.jsonl")
	)
	var accel accelFlags
	ds := pfe.DefaultSampleSpec()
	flag.BoolVar(&accel.Sample, "sample", false, "systematic sampling: simulate detailed windows over the oracle tape, fast-forward the gaps, report IPC estimates with 95% confidence intervals")
	flag.Int64Var(&accel.Unit, "sample-unit", ds.Unit, "instructions per detailed sampling window")
	flag.Int64Var(&accel.Period, "sample-period", ds.Period, "instructions from one window start to the next (>= warmup+unit)")
	flag.Int64Var(&accel.Warmup, "sample-warmup", ds.Warmup, "detailed warmup instructions preceding each window")
	flag.BoolVar(&accel.Validate, "validate-sampling", false, "run the sampled-vs-full validation suite on every selected benchmark and exit (0 = every error within its confidence interval)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *compare {
		return runCompare(flag.Args(), *tol, *ttol)
	}

	if err := accel.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "pfe-bench: -workers %d: want a non-negative worker count (0 = GOMAXPROCS)\n", *workers)
		return 2
	}

	opts := experiments.Options{
		Warmup: *warmup, Measure: *measure, Workers: *workers, SelfProfile: *selfProf,
		DumpDir: *dumpDir, NoProgressCycles: *stallCycles, FlightRecorder: *flightRec,
		Failures: &experiments.FailureLog{},
	}
	if *benches != "" {
		list, err := benchList(*benches)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfe-bench:", err)
			return 2
		}
		opts.Benchmarks = list
	}
	todo, err := experimentList(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 2
	}
	if *inject != "" {
		m, err := experiments.ParseInject(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfe-bench:", err)
			return 2
		}
		opts.Inject = m
	}
	opts.Artifacts = artifact.New(*artifactMem << 20)
	accel.apply(&opts)

	// SIGINT/SIGTERM drain the sweep instead of killing it: workers finish
	// the cells they are running, the journal stays consistent, and a
	// partial report is still emitted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Ctx = ctx

	if accel.Validate {
		return runValidateSampling(accel.spec(), opts)
	}

	// Sweep span tracing: created only when something consumes it (the
	// -sweep-trace file or the per-cell timing breakdown of a -json report).
	// A nil tracer costs nothing on the hot path.
	var spans *span.Tracer
	if *sweepTrace != "" || *jsonOut != "" {
		spans = span.New()
	}
	opts.Spans = spans

	tracker := obs.NewTracker()
	if w := *workers; w > 0 {
		tracker.SetWorkers(w)
	} else {
		tracker.SetWorkers(runtime.GOMAXPROCS(0))
	}
	if *progress {
		tracker.SetLog(os.Stderr, time.Second)
	}

	// Crash safety: -resume replays a journal's completed cells and appends
	// the rest to the same file (unless -journal redirects new appends).
	if *resumePath != "" {
		res, err := experiments.LoadResume(*resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfe-bench:", err)
			return 2
		}
		opts.Resume = res
		if res.Torn > 0 {
			fmt.Fprintf(os.Stderr, "resume: dropped %d torn trailing record(s) from an interrupted append\n", res.Torn)
		}
		fmt.Fprintf(os.Stderr, "resume: %d completed cell(s) replayable from %s\n", res.Cells(), *resumePath)
		if *journalPath == "" {
			*journalPath = *resumePath
		}
	}
	if *journalPath != "" {
		w, err := journal.Create(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfe-bench:", err)
			return 2
		}
		defer w.Close()
		opts.Journal = w
	}

	var report *obs.ReportBuilder
	if *jsonOut != "" {
		ids := make([]string, len(todo))
		for i, e := range todo {
			ids[i] = e.ID
		}
		spec := obs.RunSpec{
			WarmupInsts:  *warmup,
			MeasureInsts: *measure,
			Benchmarks:   opts.Benchmarks,
			Workers:      *workers,
			Experiments:  ids,
		}
		accel.stamp(&spec)
		report = obs.NewReportBuilder("pfe-bench", spec)
	}

	runStart := time.Now()
	exit := 0
	interrupted := false
	stages := &stageTotals{}
	var swept []experiments.Experiment
	for _, e := range todo {
		if report != nil {
			report.StartExperiment(e.ID, e.Title)
		}
		if e.Swept() {
			swept = append(swept, e)
		}
	}
	// One sweep for every swept experiment: its progress lines are one
	// "[sweep]" family, and its completed-in line follows the last table it
	// renders.
	tracker.Start()
	opts.Observer = &cellObserver{tracker: tracker, report: report, stages: stages}
	start := time.Now()
	outs, err := experiments.RunAll(opts, swept)
	sweepWall := time.Since(start)
	tracker.Finish()
	if report != nil {
		for i, e := range swept {
			addRows(report, e.ID, outs[i].Results)
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		interrupted = true
	case err != nil:
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		exit = 1
	default:
		exit = printTables(todo, outs, sweepWall, opts)
	}

	if *sweepTrace != "" {
		if err := writeSweepTrace(*sweepTrace, spans.Records()); err != nil {
			fmt.Fprintf(os.Stderr, "pfe-bench: writing %s: %v\n", *sweepTrace, err)
			if exit == 0 {
				exit = 2
			}
		} else {
			fmt.Fprintf(os.Stderr, "sweep trace: %s (%d spans)\n", *sweepTrace, len(spans.Records()))
		}
	}

	// A failed cell does not stop the run, but it is never silent: it
	// prints as FAIL in its table, becomes a stderr line and a record in
	// the report's failures block, and the run exits 1.
	fails := opts.Failures.All()
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "cell failed: %s %s/%s: %s\n",
			f.Experiment, f.Bench, f.Key, firstLine(f.Error))
		if f.DumpPath != "" {
			fmt.Fprintf(os.Stderr, "  diagnostic: %s\n", f.DumpPath)
		}
	}
	if opts.Resume != nil {
		if n := opts.Resume.Replayed.Load(); n > 0 {
			fmt.Fprintf(os.Stderr, "resume: replayed %d cell(s) from the journal\n", n)
		}
		if n := opts.Resume.Mismatched.Load(); n > 0 {
			fmt.Fprintf(os.Stderr, "resume: re-ran %d cell(s) whose journaled config hash did not match\n", n)
		}
	}
	if s := opts.Artifacts.Stats(); s.Hits()+s.Misses() > 0 {
		fmt.Fprintf(os.Stderr,
			"artifacts: %d reused / %d built (programs %d/%d, tapes %d/%d, warm %d/%d), %.1f MiB cached (%.1f MiB tapes)\n",
			s.Hits(), s.Misses(),
			s.ProgramHits, s.ProgramMisses, s.TapeHits, s.TapeMisses, s.WarmHits, s.WarmMisses,
			float64(s.Bytes)/(1<<20), float64(s.TapeBytes)/(1<<20))
		if s.Evictions > 0 {
			fmt.Fprintf(os.Stderr, "artifacts: %d eviction(s) under the %d MiB -artifact-mem cap\n",
				s.Evictions, s.MaxBytes>>20)
		}
		if s.TapeFallbackSteps > 0 {
			fmt.Fprintf(os.Stderr, "artifacts: %d instruction(s) served by tape live-fallback (recording budget outrun)\n",
				s.TapeFallbackSteps)
		}
	}
	if opts.Journal != nil {
		if err := opts.Journal.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "pfe-bench: journal unreliable (do not resume from it): %v\n", err)
			if exit == 0 {
				exit = 2
			}
		}
	}

	if report != nil {
		for _, f := range fails {
			report.AddFailure(f)
		}
		if interrupted {
			report.SetPartial()
		}
		report.SetArtifacts(artifactsReport(opts.Artifacts.Stats()))
		report.SetStageSeconds(stages.sum())
		// Per-simulation timing breakdown from the span trace: where each
		// row's wall time went (queue-wait, build, sim, overhead).
		for _, ct := range span.CellTimings(spans.Records()) {
			report.SetRowTiming(ct.Bench, ct.Key, obs.RowTiming{
				QueueWaitSeconds: ct.QueueWaitSeconds,
				BuildSeconds:     ct.BuildSeconds,
				SimSeconds:       ct.SimSeconds,
				OverheadSeconds:  ct.OverheadSeconds,
			})
		}
		rep := report.Finalize(time.Since(runStart))
		if err := obs.WriteReportFile(*jsonOut, rep); err != nil {
			fmt.Fprintf(os.Stderr, "pfe-bench: writing %s: %v\n", *jsonOut, err)
			return 2
		}
		partial := ""
		if rep.Partial {
			partial = ", partial"
		}
		fmt.Fprintf(os.Stderr, "report: %s (%d sims, %.1fs, git %s%s)\n",
			*jsonOut, rep.TotalSims, rep.WallSeconds, shortSHA(rep.Provenance.GitSHA), partial)
	}
	switch {
	case exit != 0:
	case interrupted:
		exit = 130 // conventional "terminated by SIGINT" code; the drain above kept state consistent
	case len(fails) > 0:
		exit = 1
	}
	if *selfProf {
		fmt.Fprintf(os.Stderr, "simulator stage wall time (sampled):\n%s",
			obs.FormatStageSeconds(stages.sum()))
	}
	return exit
}

// writeSweepTrace exports the sweep's span records: NDJSON (one record per
// line) when the file name ends in .ndjson or .jsonl, Chrome trace_event JSON
// (Perfetto / chrome://tracing) otherwise.
func writeSweepTrace(path string, recs []span.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".ndjson") || strings.HasSuffix(path, ".jsonl") {
		err = span.WriteNDJSON(f, recs)
	} else {
		err = span.WriteChromeTrace(f, recs)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// artifactsReport converts a cache snapshot into the report's reuse block.
func artifactsReport(s artifact.Stats) obs.ArtifactsReport {
	return obs.ArtifactsReport{
		ProgramHits:       s.ProgramHits,
		ProgramMisses:     s.ProgramMisses,
		TapeHits:          s.TapeHits,
		TapeMisses:        s.TapeMisses,
		WarmHits:          s.WarmHits,
		WarmMisses:        s.WarmMisses,
		Evictions:         s.Evictions,
		Bytes:             s.Bytes,
		TapeBytes:         s.TapeBytes,
		MaxBytes:          s.MaxBytes,
		TapeFallbackSteps: s.TapeFallbackSteps,
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// printTables prints every experiment's table in order. A swept
// experiment's table comes from the sweep's outputs (outs holds one per
// swept experiment, in order), and the last of them is followed by the
// sweep's completed-in line; an experiment that runs on its own runs here
// and gets a completed-in line of its own. It returns the exit code.
func printTables(todo []experiments.Experiment, outs []experiments.Output, sweepWall time.Duration, opts experiments.Options) int {
	last := -1
	for i, e := range todo {
		if e.Swept() {
			last = i
		}
	}
	k := 0
	for i, e := range todo {
		if e.Swept() {
			fmt.Println(outs[k].Table)
			k++
			if i == last {
				fmt.Printf("[sweep completed in %v]\n\n", sweepWall.Round(time.Millisecond))
			} else {
				fmt.Println()
			}
			continue
		}
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(res)
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// addRows adds a report row for every cell an experiment read that
// produced a result: a failed simulation has no row, and neither has one the
// sweep did not reach.
func addRows(report *obs.ReportBuilder, id string, results map[[2]string]*pfe.Result) {
	for name, r := range results {
		if r.Failed {
			continue
		}
		report.AddRow(id, obs.Row{
			Bench:            name[0],
			Config:           name[1],
			IPC:              r.IPC,
			FetchRate:        r.FetchRate,
			RenameRate:       r.RenameRate,
			FetchSlotUtil:    r.FetchSlotUtilization,
			FragPredAccuracy: r.FragPredAccuracy,
			TCHitRate:        r.TCHitRate,
			L1IMissRate:      r.L1IMissRate,
			L1DMissRate:      r.L1DMissRate,
			BufferReuseRate:  r.BufferReuseRate,
			Cycles:           r.Cycles,
			Committed:        r.Committed,
		})
	}
}

// stageTotals sums the self-profile stage times of a run's cells. Only cells
// that simulated count, which the harness reports with wall > 0: a resume
// replay reports wall 0. The one sum feeds both the stderr summary and the
// -json report.
type stageTotals struct {
	mu  sync.Mutex
	sec map[string]float64
}

func (s *stageTotals) add(wall time.Duration, sec map[string]float64) {
	if wall == 0 || len(sec) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sec == nil {
		s.sec = map[string]float64{}
	}
	for k, v := range sec {
		s.sec[k] += v
	}
}

func (s *stageTotals) sum() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sec
}

// cellObserver fans the sweep's cell completions and failures out to the
// progress tracker and the stage-time sum, and its dispatch statistics to
// the tracker and the JSON report.
type cellObserver struct {
	tracker *obs.Tracker
	report  *obs.ReportBuilder
	stages  *stageTotals
}

func (c *cellObserver) Planned(n int) { c.tracker.AddPlanned(n) }

// Sharded receives each worker's statistics for the completed sweep and
// folds them into the progress tracker (utilization in progress lines) and
// the JSON report.
func (c *cellObserver) Sharded(wall time.Duration, stats []experiments.ShardStat) {
	tasks, busy := 0, 0.0
	for _, s := range stats {
		tasks += s.Ran
		busy += s.BusySeconds
	}
	c.tracker.ShardingDone(len(stats), busy, wall.Seconds())
	if c.report != nil {
		c.report.SetScheduler(len(stats), tasks, busy, wall.Seconds())
	}
}

// Failed counts a failed cell as done in the progress lines.
func (c *cellObserver) Failed(bench, key string) { c.tracker.CellFailed() }

func (c *cellObserver) Completed(bench, key string, wall time.Duration, r *pfe.Result) {
	c.tracker.SimDone(wall)
	c.stages.add(wall, r.StageSeconds)
}

// runValidateSampling runs the sampled-vs-full validation suite on the
// paper's headline machine (PR-2x8w) and prints its error table. Exit 0
// means every benchmark's sampled IPC landed within its own 95% confidence
// interval of the exact IPC; 1 means the statistical gate failed.
func runValidateSampling(spec pfe.SampleSpec, opts experiments.Options) int {
	v, err := experiments.ValidateSampling(pfe.Preset(pfe.PR2x8w), spec, opts)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "pfe-bench: validation interrupted:", err)
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 1
	}
	fmt.Print(v.String())
	if !v.Passed {
		return 1
	}
	return 0
}

// runCompare gates new.json against the baseline report old.json.
func runCompare(args []string, tol, ttol float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: pfe-bench [-tol pct] [-ttol pct] -compare old.json new.json")
		return 2
	}
	newRep, err := obs.ReadReportFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 2
	}
	oldRep, err := obs.ReadReportFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 2
	}
	cmp := obs.Compare(oldRep, newRep, obs.CompareOptions{IPCTolPct: tol, ThroughputTolPct: ttol})
	fmt.Printf("old: %s  (git %s, %s)\nnew: %s  (git %s, %s)\n\n",
		args[0], shortSHA(oldRep.Provenance.GitSHA), oldRep.CreatedAt,
		args[1], shortSHA(newRep.Provenance.GitSHA), newRep.CreatedAt)
	fmt.Print(cmp.Table())
	return cmp.ExitCode()
}

func shortSHA(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}
