package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracker follows a run's one sweep: how many simulations it will run, how
// many have completed, throughput and ETA, printed as pfe-bench's "[sweep]"
// progress lines on stderr. All methods are safe for concurrent use.
type Tracker struct {
	mu        sync.Mutex
	workers   int // worker-pool size, for ETA scaling and utilization
	planned   int
	completed int // failed cells included: a failed cell is done
	failed    int
	startedAt time.Time
	running   bool

	// ETA inputs. Resume-replayed cells complete in microseconds and are
	// reported with wall == 0 — the documented convention for "this cell
	// did not simulate" — so averaging them into a throughput makes the ETA
	// for the remaining cold cells wildly optimistic. coldEMA tracks only
	// real simulations.
	replayed int     // completions reported with wall == 0
	coldEMA  float64 // EMA of simulated cell wall seconds
	coldSeen int     // simulated completions

	// Dispatch stats, reported once the sweep completes.
	busySec   float64
	shardWall float64

	logW     io.Writer
	logEvery time.Duration
	lastLog  time.Time
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// SetWorkers records the configured worker-pool size, which scales the
// cold-cell ETA before the sweep's scheduler stats arrive.
func (t *Tracker) SetWorkers(n int) {
	t.mu.Lock()
	if n > 0 {
		t.workers = n
	}
	t.mu.Unlock()
}

// SetLog makes the tracker print one-line progress updates to w on
// simulation completions, at most once per minInterval (the sweep's final
// completion always prints).
func (t *Tracker) SetLog(w io.Writer, minInterval time.Duration) {
	t.mu.Lock()
	t.logW = w
	t.logEvery = minInterval
	t.mu.Unlock()
}

// Start begins tracking the sweep.
func (t *Tracker) Start() {
	t.mu.Lock()
	t.startedAt = time.Now()
	t.running = true
	t.mu.Unlock()
}

// AddPlanned adds n simulations to the sweep's expected total.
func (t *Tracker) AddPlanned(n int) {
	t.mu.Lock()
	t.planned += n
	t.mu.Unlock()
}

// SimDone records one completed simulation (with its wall time) and emits a
// throttled progress line when a log writer is attached.
func (t *Tracker) SimDone(wall time.Duration) {
	t.cellDone(func() {
		if wall == 0 {
			// The harness reports exactly 0 for resume-replayed cells (no
			// simulation happened); real runs always measure > 0.
			t.replayed++
			return
		}
		s := wall.Seconds()
		if t.coldSeen == 0 {
			t.coldEMA = s
		} else {
			t.coldEMA = 0.7*t.coldEMA + 0.3*s
		}
		t.coldSeen++
	})
}

// CellFailed records one failed cell: it counts as done, so the sweep's
// progress still reaches its planned total, and the progress line names the
// failures.
func (t *Tracker) CellFailed() {
	t.cellDone(func() { t.failed++ })
}

// cellDone counts one finished cell, lets note update the tracker's state,
// and prints a progress line unless one was printed less than the log
// interval ago (the sweep's final cell always prints).
func (t *Tracker) cellDone(note func()) {
	t.mu.Lock()
	t.completed++
	note()
	line := ""
	if t.logW != nil && (t.completed == t.planned || time.Since(t.lastLog) >= t.logEvery) {
		line = t.progressLine()
		t.lastLog = time.Now()
	}
	w := t.logW
	t.mu.Unlock()
	if line != "" {
		fmt.Fprintln(w, line)
	}
}

// ShardingDone records the sweep's dispatch statistics and prints a closing
// progress line carrying its worker-pool utilization.
func (t *Tracker) ShardingDone(workers int, busySeconds, wallSeconds float64) {
	t.mu.Lock()
	t.workers, t.busySec, t.shardWall = workers, busySeconds, wallSeconds
	line := ""
	if t.logW != nil {
		line = t.progressLine()
	}
	w := t.logW
	t.mu.Unlock()
	if line != "" {
		fmt.Fprintln(w, line)
	}
}

// Finish marks the sweep done.
func (t *Tracker) Finish() {
	t.mu.Lock()
	t.running = false
	t.mu.Unlock()
}

// eta returns the sweep's remaining-time estimate in seconds (0 = unknown).
// Once a real simulation has finished it scales the EMA of real simulation
// durations by the cells left and the worker pool executing them:
// near-instant replayed cells would skew a plain completion rate wildly
// optimistic. Before that it extrapolates the overall completion rate.
// Callers hold t.mu.
func (t *Tracker) eta() float64 {
	remaining := t.planned - t.completed
	if !t.running || remaining <= 0 {
		return 0
	}
	if t.coldSeen > 0 {
		workers := min(max(t.workers, 1), remaining)
		return t.coldEMA * float64(remaining) / float64(workers)
	}
	if elapsed := time.Since(t.startedAt).Seconds(); elapsed > 0 && t.completed > 0 {
		return float64(remaining) * elapsed / float64(t.completed)
	}
	return 0
}

func (t *Tracker) progressLine() string {
	elapsed := time.Since(t.startedAt)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(t.completed) / s
	}
	pct := 0.0
	eta := "?"
	if t.planned > 0 {
		pct = 100 * float64(t.completed) / float64(t.planned)
		if sec := t.eta(); sec > 0 {
			eta = time.Duration(sec * float64(time.Second)).Round(time.Second).String()
		}
	}
	line := fmt.Sprintf("[sweep] %d/%d sims (%.0f%%)  elapsed %s  %.1f sims/s  eta %s",
		t.completed, t.planned, pct, elapsed.Round(100*time.Millisecond), rate, eta)
	if t.replayed > 0 {
		line += fmt.Sprintf("  (%d replayed)", t.replayed)
	}
	if t.failed > 0 {
		line += fmt.Sprintf("  (%d failed)", t.failed)
	}
	if t.workers > 0 && t.shardWall > 0 {
		line += fmt.Sprintf("  util %.0f%%/%dw",
			100*t.busySec/(float64(t.workers)*t.shardWall), t.workers)
	}
	return line
}
