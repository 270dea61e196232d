package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracker follows experiment progress: how many simulations each experiment
// will run, how many have completed, throughput and ETA, printed as the
// pfe-bench stderr progress lines. All methods are safe for concurrent use.
type Tracker struct {
	mu      sync.Mutex
	exps    map[string]*expState
	workers int // configured worker-pool size (SetWorkers), for ETA scaling

	logW     io.Writer
	logEvery time.Duration
	lastLog  time.Time
}

type expState struct {
	id        string
	planned   int
	completed int // failed cells included: a failed cell is done
	failed    int
	startedAt time.Time
	running   bool

	// ETA inputs. Memoized (or resume-replayed) cells complete in
	// microseconds and are reported with wall == 0 — the documented
	// convention for "this cell did not simulate" — so averaging them into a
	// throughput makes the ETA for the remaining cold cells wildly
	// optimistic. coldEMA tracks only real simulations.
	memoized int     // completions reported with wall == 0
	coldEMA  float64 // EMA of non-memoized cell wall seconds
	coldSeen int     // non-memoized completions

	// Work-stealing scheduler stats, accumulated across batches (reported
	// after each batch completes, so they cover finished batches only).
	workers   int
	stolen    int
	busySec   float64
	shardWall float64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{exps: map[string]*expState{}}
}

// SetWorkers records the configured worker-pool size, which scales the
// cold-cell ETA before the first batch's scheduler stats arrive.
func (t *Tracker) SetWorkers(n int) {
	t.mu.Lock()
	if n > 0 {
		t.workers = n
	}
	t.mu.Unlock()
}

// SetLog makes the tracker print one-line progress updates to w on
// simulation completions, at most once per minInterval (the final
// completion of an experiment always prints).
func (t *Tracker) SetLog(w io.Writer, minInterval time.Duration) {
	t.mu.Lock()
	t.logW = w
	t.logEvery = minInterval
	t.mu.Unlock()
}

// StartExperiment begins tracking an experiment.
func (t *Tracker) StartExperiment(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.exps[id]
	if e == nil {
		e = &expState{id: id}
		t.exps[id] = e
	}
	e.startedAt = time.Now()
	e.running = true
}

// AddPlanned adds n simulations to an experiment's expected total (an
// experiment may plan cells in several batches).
func (t *Tracker) AddPlanned(id string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.exps[id]; e != nil {
		e.planned += n
	}
}

// SimDone records one completed simulation (with its wall time) and emits a
// throttled progress line when a log writer is attached.
func (t *Tracker) SimDone(id string, wall time.Duration) {
	t.cellDone(id, func(e *expState) {
		if wall == 0 {
			// The harness reports exactly 0 for memoized and
			// resume-replayed cells (no simulation happened); real runs
			// always measure > 0.
			e.memoized++
			return
		}
		s := wall.Seconds()
		if e.coldSeen == 0 {
			e.coldEMA = s
		} else {
			e.coldEMA = 0.7*e.coldEMA + 0.3*s
		}
		e.coldSeen++
	})
}

// CellFailed records one failed cell: it counts as done, so an experiment's
// progress still reaches its planned total, and the progress line names the
// failures.
func (t *Tracker) CellFailed(id string) {
	t.cellDone(id, func(e *expState) { e.failed++ })
}

// cellDone counts one finished cell of experiment id, lets note update the
// experiment's state, and prints a progress line unless one was printed less
// than the log interval ago (an experiment's final cell always prints).
func (t *Tracker) cellDone(id string, note func(*expState)) {
	t.mu.Lock()
	e := t.exps[id]
	if e == nil {
		t.mu.Unlock()
		return
	}
	e.completed++
	note(e)
	line := ""
	if t.logW != nil && (e.completed == e.planned || time.Since(t.lastLog) >= t.logEvery) {
		line = t.progressLine(e)
		t.lastLog = time.Now()
	}
	w := t.logW
	t.mu.Unlock()
	if line != "" {
		fmt.Fprintln(w, line)
	}
}

// ShardingDone records one batch's work-stealing scheduler statistics for an
// experiment: worker-pool utilization and steal counts surface in progress
// lines. Worker counts take the max across batches; the other fields
// accumulate.
func (t *Tracker) ShardingDone(id string, workers, stolen int, busySeconds, wallSeconds float64) {
	t.mu.Lock()
	e := t.exps[id]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if workers > e.workers {
		e.workers = workers
	}
	e.stolen += stolen
	e.busySec += busySeconds
	e.shardWall += wallSeconds
	// A batch completes at most once per runCells sweep, so an
	// unthrottled closing line (the first to carry the batch's
	// utilization) cannot flood the log.
	line := ""
	if t.logW != nil {
		line = t.progressLine(e)
	}
	w := t.logW
	t.mu.Unlock()
	if line != "" {
		fmt.Fprintln(w, line)
	}
}

// FinishExperiment marks an experiment done.
func (t *Tracker) FinishExperiment(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.exps[id]; e != nil {
		e.running = false
	}
}

// eta returns an experiment's remaining-time estimate in seconds (0 =
// unknown). Once a real simulation has finished it scales the EMA of real
// simulation durations by the cells left and the worker pool executing them:
// near-instant memoized cells would skew a plain completion rate wildly
// optimistic. Before that it extrapolates the overall completion rate.
// Callers hold t.mu.
func (t *Tracker) eta(e *expState) float64 {
	remaining := e.planned - e.completed
	if !e.running || remaining <= 0 {
		return 0
	}
	if e.coldSeen > 0 {
		workers := e.workers
		if workers <= 0 {
			workers = t.workers
		}
		if workers <= 0 {
			workers = 1
		}
		if workers > remaining {
			workers = remaining
		}
		return e.coldEMA * float64(remaining) / float64(workers)
	}
	if elapsed := time.Since(e.startedAt).Seconds(); elapsed > 0 && e.completed > 0 {
		return float64(remaining) * elapsed / float64(e.completed)
	}
	return 0
}

func (t *Tracker) progressLine(e *expState) string {
	elapsed := time.Since(e.startedAt)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(e.completed) / s
	}
	pct := 0.0
	eta := "?"
	if e.planned > 0 {
		pct = 100 * float64(e.completed) / float64(e.planned)
		if sec := t.eta(e); sec > 0 {
			eta = time.Duration(sec * float64(time.Second)).Round(time.Second).String()
		}
	}
	line := fmt.Sprintf("[%s] %d/%d sims (%.0f%%)  elapsed %s  %.1f sims/s  eta %s",
		e.id, e.completed, e.planned, pct, elapsed.Round(100*time.Millisecond), rate, eta)
	if e.memoized > 0 {
		line += fmt.Sprintf("  (%d memoized)", e.memoized)
	}
	if e.failed > 0 {
		line += fmt.Sprintf("  (%d failed)", e.failed)
	}
	if e.workers > 0 && e.shardWall > 0 {
		line += fmt.Sprintf("  util %.0f%%/%dw (%d stolen)",
			100*e.busySec/(float64(e.workers)*e.shardWall), e.workers, e.stolen)
	}
	return line
}
