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

// Observer receives cell-level lifecycle callbacks from an experiment run:
// Planned once per scheduled batch with the number of simulations it will
// run, Completed for each finished simulation. Completed is called from
// concurrent worker goroutines, so implementations must be safe for
// concurrent use.
type Observer interface {
	Planned(n int)
	Completed(bench, key string, wall time.Duration, r *pfe.Result)
}

// ShardObserver is an optional extension of Observer: implementations also
// receive each worker's statistics after a batch of cells completes, along
// with the batch's wall time.
type ShardObserver interface {
	Observer
	Sharded(wall time.Duration, stats []ShardStat)
}

// FailureObserver is an optional extension of Observer: implementations are
// also told of each cell that failed, so that a batch's completions plus its
// failures add up to what Planned announced. Like Completed, Failed is
// called from concurrent worker goroutines.
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
	// per batch of cells, a cell span per simulation (worker-attributed),
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
	// cell (config hash + full scalar result) so an interrupted sweep can be
	// resumed with Resume. Appends are fsynced before the cell is reported
	// complete.
	Journal *journal.Writer

	// Resume, if non-nil, replays previously journaled cells instead of
	// re-running them, after cross-checking the journaled config hash
	// against the cell about to run (a mismatch re-runs the cell).
	Resume *Resume

	// ExperimentID namespaces journal and failure records; cmd/pfe-bench
	// sets it per experiment.
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
	// program images and oracle tapes are shared across every cell of the
	// same benchmark (see pfe.RunOptions.Artifacts), and completed cell
	// results are memoized under their config hash so an identical cell in
	// a later experiment of the same run (Fig 4/5/8 share most of their
	// grid) is served without re-simulating. Results are bit-identical
	// with or without it.
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
	batch := o.Spans.StartBatch(o.ExperimentID, len(cells))
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

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string // "table1", "table2", "fig4" ... "fig10", "construction"
	Title string
	Run   func(Options) (fmt.Stringer, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: Simulation Parameters", Run: runTable1},
		{ID: "table2", Title: "Table 2: Benchmark Characteristics", Run: runTable2},
		{ID: "fig4", Title: "Figure 4: Fetch Slot Utilization", Run: runFig4},
		{ID: "fig5", Title: "Figure 5: Fetch and Rename Rates", Run: runFig5},
		{ID: "fig6", Title: "Figure 6: Parallel Rename with a Trace Cache", Run: runFig6},
		{ID: "fig7", Title: "Figure 7: Live-Out Predictor Accuracy", Run: runFig7},
		{ID: "fig8", Title: "Figure 8: Performance", Run: runFig8},
		{ID: "fig9", Title: "Figure 9: Sensitivity to Cache Size", Run: runFig9},
		{ID: "fig10", Title: "Figure 10: Sensitivity to Fragment Predictor Size", Run: runFig10},
		{ID: "construction", Title: "§3.2/§3.3: Fragment Buffers and Construction", Run: runConstruction},
		{ID: "delayed", Title: "Ablation: Delayed vs Live-Out Parallel Rename (§4)", Run: runDelayed},
		{ID: "switchonmiss", Title: "Ablation: Switch-on-Miss Sequencers (§2.2)", Run: runSwitchOnMiss},
		{ID: "fragsel", Title: "Ablation: Fragment Selection Heuristics (§6)", Run: runFragSel},
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
