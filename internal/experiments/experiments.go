// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a named runner producing a formatted
// table plus structured data that bench targets and tests assert against.
// The same runners back cmd/pfe-bench and the repository's bench_test.go,
// so the printed artifacts are identical either way.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/journal"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/obs/span"
)

// Observer receives cell-level lifecycle callbacks from a run: Planned once
// with the number of distinct simulations its sweep will run, Completed once
// for each finished simulation, with the bench and key of the experiment
// that first requested it (see RunAll). Completed is called from concurrent
// worker goroutines, so implementations must be safe for concurrent use.
type Observer interface {
	Planned(n int)
	Completed(bench, key string, wall time.Duration, r *pfe.Result)
}

// ShardObserver is an optional extension of Observer: implementations also
// receive each worker's statistics after the sweep completes, along with
// the sweep's wall time.
type ShardObserver interface {
	Observer
	Sharded(wall time.Duration, stats []ShardStat)
}

// FailureObserver is an optional extension of Observer: implementations are
// also told of each simulation that failed, so that the sweep's completions
// plus its failures add up to what Planned announced. Like Completed, Failed
// is called from concurrent worker goroutines.
type FailureObserver interface {
	Observer
	Failed(bench, key string)
}

// Options bounds experiment runs.
type Options struct {
	// Warmup and Measure are per-simulation instruction budgets.
	Warmup  int64
	Measure int64
	// Benchmarks restricts the suite (nil = all twelve).
	Benchmarks []string
	// Workers caps concurrent simulations (0 = GOMAXPROCS).
	Workers int

	// Observer, if non-nil, is notified as simulations are planned and
	// completed (progress lines, JSON report rows).
	Observer Observer

	// Spans, if non-nil, receives hierarchical sweep spans: one sweep span
	// per run, a cell span per simulation (worker-attributed),
	// and run-phase spans under it (program/tape builds, sim, sampled
	// windows, journal appends). Nil disables tracing at ~zero cost.
	Spans *span.Tracer

	// SelfProfile enables per-run wall-time attribution of the simulator
	// itself, surfaced in each Result.StageSeconds.
	SelfProfile bool

	// Ctx, if non-nil, cancels the sweep: workers drain (in-flight cells
	// finish, unclaimed cells are never started) and runCells returns the
	// completed subset alongside a context error. Nil means Background.
	Ctx context.Context

	// FailBudget is ignored: a failed cell never aborts a sweep (see
	// runCells). The field remains only for callers that still set it.
	FailBudget int

	// Failures, if non-nil, collects a structured obs.CellFailure for every
	// cell that failed, and lets runCells return results with gaps. Without
	// it, a failed cell fails the whole batch with an error.
	Failures *FailureLog

	// Journal, if non-nil, receives a crash-safe record of every completed
	// simulation (content hash + full scalar result) so an interrupted sweep
	// can be resumed with Resume. Appends are fsynced before the simulation
	// is reported complete.
	Journal *journal.Writer

	// Resume, if non-nil, replays previously journaled simulations instead
	// of re-running them: a cell replays the record whose content hash is
	// its own (see simHash), and runs when there is none.
	Resume *Resume

	// ExperimentID is ignored: journal and failure records name the
	// experiment that first requested each simulation (see RunAll). The
	// field remains only for callers that still set it.
	ExperimentID string

	// DumpDir is where watchdog stall diagnostics are written (flight
	// recorder tail, per-stage occupancy, predictor state). Empty means the
	// OS temp dir.
	DumpDir string

	// NoProgressCycles and FlightRecorder configure the simulator's
	// forward-progress watchdog and event ring; see pfe.RunOptions.
	NoProgressCycles uint64
	FlightRecorder   int

	// Inject maps "bench/key" to a fault mode ("panic", "error" or "stall")
	// injected into that cell: the harness's own fault-tolerance test hook,
	// reachable via pfe-bench -inject. See ParseInject.
	Inject map[string]string

	// Sample, if non-nil, runs every cell in systematic-sampling mode
	// (detailed windows over an oracle tape; see pfe.RunOptions.Sample).
	// Requires Artifacts. Reported IPCs are sampled estimates with
	// confidence intervals in each Result.Sampling.
	Sample *pfe.SampleSpec

	// Artifacts, if non-nil, is the cross-cell workload reuse cache:
	// program images, oracle tapes and union warm packs are shared across
	// every cell of the same benchmark (see pfe.RunOptions.Artifacts).
	// Results are bit-identical with or without it. It holds no results: a
	// run simulates each distinct cell once (RunAll), so no cell repeats
	// another.
	Artifacts *artifact.Cache
}

// Default returns the harness budgets used for the recorded results in
// EXPERIMENTS.md.
func Default() Options { return Options{Warmup: 100_000, Measure: 300_000} }

// CI returns reduced budgets for tests.
func CI() Options { return Options{Warmup: 20_000, Measure: 60_000} }

func (o Options) benches() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return pfe.Benchmarks()
}

func (o Options) runOpts() pfe.RunOptions {
	if o.Measure == 0 {
		// Fill in only the budgets; observability fields pass through.
		def := Default()
		o.Warmup, o.Measure = def.Warmup, def.Measure
	}
	return pfe.RunOptions{
		WarmupInsts:      o.Warmup,
		MeasureInsts:     o.Measure,
		SelfProfile:      o.SelfProfile,
		NoProgressCycles: o.NoProgressCycles,
		FlightRecorder:   o.FlightRecorder,
		Spans:            o.Spans,
		Artifacts:        o.Artifacts,
		Sample:           o.Sample,
	}
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) workers() int {
	n := o.Workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		// Negative caps (e.g. from a bad flag) mean "serial", not
		// "unbounded": clamp instead of handing make(chan) a negative
		// capacity.
		n = 1
	}
	return n
}

// warmRosterOf collects one machine per distinct config key of a batch —
// the sweep roster handed to pfe.RunOptions.WarmRoster so the first cell to
// reach a warm-state boundary trains every class of the sweep in one replay
// (union warming; see pfe's warmstate.go). Purely a performance hint: it
// never changes any cell's result or its config hash.
func warmRosterOf(cells []cell) []pfe.Machine {
	var ms []pfe.Machine
	seen := map[string]bool{}
	for i := range cells {
		if cells[i].run != nil || seen[cells[i].key] {
			continue
		}
		seen[cells[i].key] = true
		ms = append(ms, cells[i].machine)
	}
	return ms
}

// cell identifies one simulation in a sweep. run, when non-nil, replaces
// pfe.Run for this cell (a test hook for the fault-tolerance machinery).
type cell struct {
	bench   string
	machine pfe.Machine
	key     string // caller-defined config key
	run     func() (*pfe.Result, error)

	// exp is the experiment that first requested the cell, and aliases are
	// the other keys later requesters name the same simulation by (see
	// RunAll); journal and failure records and -inject read them.
	exp     string
	aliases []string
}

// ShardStat describes one worker's share of a dispatched batch.
type ShardStat struct {
	Ran         int     // tasks this worker executed
	BusySeconds float64 // wall time spent executing tasks
	// Stolen is always 0: workers claim tasks from one shared index, so no
	// task is ever taken from another worker.
	Stolen int
}

// dispatch calls run(w, pos) exactly once for every position pos in [0, n),
// on up to workers goroutines; w is the index of the worker that runs it.
// Each worker claims the next unclaimed position from one shared counter, so
// no worker idles while a position remains unclaimed, and positions start
// in order. run must be safe for concurrent use; callers that need a result
// per position write disjoint slots, so the outcome is the same whatever the
// worker count.
//
// Cancelling ctx drains the batch: each worker finishes the task it is
// running, then claims no more. Unclaimed positions never run.
func dispatch(ctx context.Context, n, workers int, run func(w, pos int)) []ShardStat {
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	stats := make([]ShardStat, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range stats {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			for ctx.Err() == nil {
				pos := int(next.Add(1) - 1)
				if pos >= n {
					return
				}
				start := time.Now()
				run(w, pos)
				st.BusySeconds += time.Since(start).Seconds()
				st.Ran++
			}
		}(w)
	}
	wg.Wait()
	return stats
}

// leadersFirst returns the order runCells dispatches cells in: the first
// cell of each benchmark, in cell order, then every other cell in cell
// order. A benchmark's first cell builds what all of its cells share (the
// program, the tape, the union warm pack), and a cell that needs a build
// another worker is running waits for it. Starting every benchmark's build
// before any second cell keeps each worker on a benchmark of its own while
// the builds run; in plain cell order both workers of a two-core host would
// start on the first benchmark, and one would wait out its build.
func leadersFirst(cells []cell) []int {
	order := make([]int, 0, len(cells))
	var rest []int
	seen := map[string]bool{}
	for i := range cells {
		if seen[cells[i].bench] {
			rest = append(rest, i)
			continue
		}
		seen[cells[i].bench] = true
		order = append(order, i)
	}
	return append(order, rest...)
}

// runCells executes all cells (on up to Workers goroutines, in leadersFirst
// order; see dispatch) and returns results keyed by (bench, key). Workers
// read the shared cells slice in place and write disjoint outcome slots, so
// no per-goroutine copy of a cell (or of the run options, which are hoisted
// and invariant across the batch) is ever made, and the results do not
// depend on the order or the worker count.
//
// Fault tolerance: each cell runs once behind a recover barrier, and every
// cell runs whatever the others do. A failed cell becomes a record in
// o.Failures and a gap in the results: failedResult's placeholder, whose NaN
// metrics make every renderer print FAIL at the cell and at every number
// derived from it. A caller that passes no Failures log gets an error naming
// the first failed cell instead. Cancelling o.Ctx drains workers and returns
// the completed subset wrapped around the context error.
func runCells(o Options, cells []cell) (map[[2]string]*pfe.Result, error) {
	if o.Observer != nil {
		o.Observer.Planned(len(cells))
	}
	ctx := o.ctx()
	ro := o.runOpts()
	ro.WarmRoster = warmRosterOf(cells)
	outs := make([]cellOutcome, len(cells))
	order := leadersFirst(cells)
	batch := o.Spans.StartBatch("sweep", len(cells))
	start := time.Now()
	stats := dispatch(ctx, len(cells), o.workers(), func(w, pos int) {
		i := order[pos]
		outs[i] = o.runCell(ctx, &cells[i], ro, batch, w, i)
	})
	batch.End()
	if so, ok := o.Observer.(ShardObserver); ok {
		so.Sharded(time.Since(start), stats)
	}
	results := make(map[[2]string]*pfe.Result, len(cells))
	var failed int
	var firstFail *obs.CellFailure
	for i := range outs {
		c := &cells[i]
		switch {
		case outs[i].r != nil:
			results[[2]string{c.bench, c.key}] = outs[i].r
		case outs[i].fail != nil:
			failed++
			if firstFail == nil {
				firstFail = outs[i].fail
			}
			results[[2]string{c.bench, c.key}] = failedResult(c.bench, c.machine.Name())
			// Neither r nor fail set: the cell was never run (drained by
			// cancellation) — leave it absent.
		}
	}
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("experiments: sweep interrupted with %d/%d cells done: %w",
			len(results), len(cells), err)
	}
	if failed > 0 && o.Failures == nil {
		return nil, fmt.Errorf("experiments: %d cell(s) failed; first: %s/%s: %s",
			failed, firstFail.Bench, firstFail.Key, firstFail.Error)
	}
	return results, nil
}

// Experiment is one regenerable paper artifact. A swept experiment runs
// each of its configs on every benchmark and renders its table from the
// results; one that runs on its own (Table 1, Table 2, Fig 7) sets run
// instead.
type Experiment struct {
	ID    string // "table1", "table2", "fig4" ... "fig10", "construction"
	Title string

	configs []config
	render  func(o Options, res map[[2]string]*pfe.Result) fmt.Stringer
	run     func(Options) (fmt.Stringer, error)
}

// config is one machine of a swept experiment and the key its table names
// it by.
type config struct {
	key     string
	machine pfe.Machine
}

// Swept reports whether e reads simulations, which RunAll plans into its
// run's one sweep, rather than running on its own.
func (e Experiment) Swept() bool { return e.run == nil }

// Run runs e alone: for a swept experiment, RunAll over e.
func (e Experiment) Run(o Options) (fmt.Stringer, error) {
	if !e.Swept() {
		return e.run(o)
	}
	outs, err := RunAll(o, []Experiment{e})
	if err != nil {
		return nil, err
	}
	return outs[0].Table, nil
}

// cells lists e's simulations, benchmark by benchmark.
func (e Experiment) cells(o Options) []cell {
	var cells []cell
	for _, b := range o.benches() {
		for _, c := range e.configs {
			cells = append(cells, cell{bench: b, machine: c.machine, key: c.key, exp: e.ID})
		}
	}
	return cells
}

// Output is one experiment's part of a run.
type Output struct {
	// Table is the experiment's rendered table; nil when the run's sweep
	// did not finish.
	Table fmt.Stringer
	// Results maps every (bench, key) a swept experiment reads to its
	// simulation's result (a failed simulation's is marked Failed); a
	// simulation the sweep did not reach is absent. Nil for an experiment
	// that runs on its own.
	Results map[[2]string]*pfe.Result
}

// RunAll runs exps as one run and returns their outputs in exps order. The
// cells of every swept experiment are planned together, and each distinct
// simulation runs once: the same benchmark, budgets, machine and sampling
// (simHash) is one simulation whatever key each experiment names it by. The
// first experiment to request a simulation names it with its key; the keys
// of later requesters are its aliases. The simulations go out benchmark by
// benchmark in one runCells dispatch (leaders first, one warm roster for the
// run), and every swept experiment renders from that one result set. The
// experiments that run on their own run after the sweep. Over one
// experiment the plan is that experiment's cells in its own order.
//
// An interrupted sweep returns the results it has, no tables, and the
// context error.
func RunAll(o Options, exps []Experiment) ([]Output, error) {
	sims, reads := plan(o, exps)
	var results map[[2]string]*pfe.Result
	var err error
	if len(sims) > 0 {
		results, err = runCells(o, sims)
	}
	outs := make([]Output, len(exps))
	for i := range exps {
		if reads[i] == nil {
			continue
		}
		outs[i].Results = map[[2]string]*pfe.Result{}
		for name, sim := range reads[i] {
			if r := results[sim]; r != nil {
				outs[i].Results[name] = r
			}
		}
	}
	if err != nil {
		return outs, err
	}
	for i, e := range exps {
		if e.Swept() {
			outs[i].Table = e.render(o, outs[i].Results)
		} else if outs[i].Table, err = e.run(o); err != nil {
			return outs, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return outs, nil
}

// plan lists the distinct simulations of exps' swept experiments, benchmark
// by benchmark, and for each swept experiment maps every (bench, key) it
// reads to the (bench, key) its simulation is named by.
func plan(o Options, exps []Experiment) ([]cell, []map[[2]string][2]string) {
	ro := o.runOpts()
	var sims []cell                 // in request order
	at := map[string]int{}          // simHash -> position in sims
	named := map[[2]string]string{} // (bench, key) -> simHash
	reads := make([]map[[2]string][2]string, len(exps))
	for i, e := range exps {
		if !e.Swept() {
			continue
		}
		reads[i] = map[[2]string][2]string{}
		for _, c := range e.cells(o) {
			h := simHash(c.bench, c.machine, ro)
			name := [2]string{c.bench, c.key}
			if prev, ok := named[name]; ok && prev != h {
				panic(fmt.Sprintf("experiments: %s/%s names two different simulations", c.bench, c.key))
			}
			named[name] = h
			j, ok := at[h]
			if !ok {
				j = len(sims)
				at[h] = j
				sims = append(sims, c)
			} else if s := &sims[j]; s.key != c.key && !slices.Contains(s.aliases, c.key) {
				s.aliases = append(s.aliases, c.key)
			}
			reads[i][name] = [2]string{sims[j].bench, sims[j].key}
		}
	}
	return byBenchmark(sims), reads
}

// byBenchmark orders cells benchmark by benchmark: each benchmark at its
// first cell's place, and its cells in their own order.
func byBenchmark(cells []cell) []cell {
	var benches []string
	of := map[string][]cell{}
	for _, c := range cells {
		if of[c.bench] == nil {
			benches = append(benches, c.bench)
		}
		of[c.bench] = append(of[c.bench], c)
	}
	out := make([]cell, 0, len(cells))
	for _, b := range benches {
		out = append(out, of[b]...)
	}
	return out
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: Simulation Parameters", run: runTable1},
		{ID: "table2", Title: "Table 2: Benchmark Characteristics", run: runTable2},
		{ID: "fig4", Title: "Figure 4: Fetch Slot Utilization", configs: presets(fig4FrontEnds...), render: renderFig4},
		{ID: "fig5", Title: "Figure 5: Fetch and Rename Rates", configs: presets(fig8FrontEnds...), render: renderFig5},
		{ID: "fig6", Title: "Figure 6: Parallel Rename with a Trace Cache", configs: presets(pfe.TC, pfe.TCPR2x8w, pfe.TCPR4x4w), render: renderFig6},
		{ID: "fig7", Title: "Figure 7: Live-Out Predictor Accuracy", run: runFig7},
		{ID: "fig8", Title: "Figure 8: Performance", configs: presets(fig8FrontEnds...), render: renderFig8},
		{ID: "fig9", Title: "Figure 9: Sensitivity to Cache Size", configs: fig9Configs(), render: renderFig9},
		{ID: "fig10", Title: "Figure 10: Sensitivity to Fragment Predictor Size", configs: fig10Configs(), render: renderFig10},
		{ID: "construction", Title: "§3.2/§3.3: Fragment Buffers and Construction", configs: presets(pfe.PF2x8w, pfe.TC), render: renderConstruction},
		{ID: "delayed", Title: "Ablation: Delayed vs Live-Out Parallel Rename (§4)", configs: presets(delayedFrontEnds...), render: renderDelayed},
		{ID: "switchonmiss", Title: "Ablation: Switch-on-Miss Sequencers (§2.2)", configs: switchOnMissConfigs(), render: renderSwitchOnMiss},
		{ID: "fragsel", Title: "Ablation: Fragment Selection Heuristics (§6)", configs: fragSelConfigs(), render: renderFragSel},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
