package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracker follows experiment progress: how many simulations each experiment
// will run, how many have completed, throughput and ETA. The same data
// backs the pfe-bench stderr progress lines and the HTTP /status endpoint.
// All methods are safe for concurrent use.
type Tracker struct {
	mu        sync.Mutex
	startedAt time.Time
	order     []string
	exps      map[string]*expState
	workers   int // configured worker-pool size (SetWorkers), for ETA scaling

	logW     io.Writer
	logEvery time.Duration
	lastLog  time.Time

	// Registered metrics (nil without a registry).
	reg     *Registry
	durHist *Histogram
	ipcHist *Histogram
}

type expState struct {
	id, title string
	planned   int
	completed int
	startedAt time.Time
	running   bool
	wall      time.Duration

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

	plannedG, completedG *Gauge
}

// NewTracker returns a tracker; when r is non-nil, per-experiment progress
// gauges (pfe_experiment_sims_planned/completed{experiment=...}) and the
// per-simulation duration and IPC histograms (pfe_sim_duration_seconds,
// pfe_sim_ipc) are registered on it.
func NewTracker(r *Registry) *Tracker {
	t := &Tracker{startedAt: time.Now(), exps: map[string]*expState{}, reg: r}
	if r != nil {
		t.durHist = r.Histogram("pfe_sim_duration_seconds",
			"Wall time of each completed simulation.",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
		t.ipcHist = r.Histogram("pfe_sim_ipc",
			"Measured IPC of each completed simulation.",
			[]float64{1, 2, 3, 4, 5, 6, 8, 10})
	}
	return t
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
func (t *Tracker) StartExperiment(id, title string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.exps[id]
	if e == nil {
		e = &expState{id: id, title: title}
		t.exps[id] = e
		t.order = append(t.order, id)
		if t.reg != nil {
			e.plannedG = t.reg.Gauge("pfe_experiment_sims_planned",
				"Simulations planned per experiment.", "experiment", id)
			e.completedG = t.reg.Gauge("pfe_experiment_sims_completed",
				"Simulations completed per experiment.", "experiment", id)
		}
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
		if e.plannedG != nil {
			e.plannedG.Set(float64(e.planned))
		}
	}
}

// SimDone records one completed simulation (with its measured IPC and wall
// time) and emits a throttled progress line when a log writer is attached.
func (t *Tracker) SimDone(id string, ipc float64, wall time.Duration) {
	if t.durHist != nil {
		t.durHist.Observe(wall.Seconds())
		t.ipcHist.Observe(ipc)
	}
	t.mu.Lock()
	e := t.exps[id]
	if e == nil {
		t.mu.Unlock()
		return
	}
	e.completed++
	if e.completedG != nil {
		e.completedG.Set(float64(e.completed))
	}
	if wall == 0 {
		// The harness reports exactly 0 for memoized and resume-replayed
		// cells (no simulation happened); real runs always measure > 0.
		e.memoized++
	} else {
		s := wall.Seconds()
		if e.coldSeen == 0 {
			e.coldEMA = s
		} else {
			e.coldEMA = 0.7*e.coldEMA + 0.3*s
		}
		e.coldSeen++
	}
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
// lines and /status. Worker counts take the max across batches; the other
// fields accumulate.
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
	if e := t.exps[id]; e != nil && e.running {
		e.running = false
		e.wall = time.Since(e.startedAt)
	}
}

// etas returns both remaining-time estimates for an experiment, in seconds
// (0 = unknown): naive extrapolates the overall completion rate — which
// near-instant memoized cells skew wildly optimistic — while cold scales the
// EMA of real simulation durations by the cells left and the worker pool
// executing them. Callers hold t.mu.
func (t *Tracker) etas(e *expState) (naive, cold float64) {
	remaining := e.planned - e.completed
	if !e.running || remaining <= 0 {
		return 0, 0
	}
	elapsed := time.Since(e.startedAt).Seconds()
	if elapsed > 0 && e.completed > 0 {
		naive = float64(remaining) * elapsed / float64(e.completed)
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
		cold = e.coldEMA * float64(remaining) / float64(workers)
	}
	return naive, cold
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
		naive, cold := t.etas(e)
		// The cold estimate is the honest one once memoized cells are in the
		// mix; before any real simulation finishes, fall back to the naive
		// rate extrapolation.
		if best := cold; best > 0 || naive > 0 {
			if best == 0 {
				best = naive
			}
			eta = time.Duration(best * float64(time.Second)).Round(time.Second).String()
		}
	}
	line := fmt.Sprintf("[%s] %d/%d sims (%.0f%%)  elapsed %s  %.1f sims/s  eta %s",
		e.id, e.completed, e.planned, pct, elapsed.Round(100*time.Millisecond), rate, eta)
	if e.memoized > 0 {
		line += fmt.Sprintf("  (%d memoized)", e.memoized)
	}
	if e.workers > 0 && e.shardWall > 0 {
		line += fmt.Sprintf("  util %.0f%%/%dw (%d stolen)",
			100*e.busySec/(float64(e.workers)*e.shardWall), e.workers, e.stolen)
	}
	return line
}

// ExpStatus is one experiment's progress snapshot (the /status JSON shape).
type ExpStatus struct {
	ID             string  `json:"id"`
	Title          string  `json:"title"`
	PlannedSims    int     `json:"planned_sims"`
	CompletedSims  int     `json:"completed_sims"`
	Running        bool    `json:"running"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	SimsPerSec     float64 `json:"sims_per_sec"`

	// ETASeconds is the best remaining-time estimate: the cold-cell estimate
	// when at least one real simulation has completed, otherwise the naive
	// rate extrapolation. Both inputs are also exposed: ETANaiveSeconds
	// extrapolates the overall completion rate (memoized cells skew it
	// optimistic), ETAColdSeconds scales the EMA of non-memoized simulation
	// durations (ColdSimSeconds) by the remaining cells over the worker pool.
	ETASeconds      float64 `json:"eta_seconds"`
	ETANaiveSeconds float64 `json:"eta_naive_seconds,omitempty"`
	ETAColdSeconds  float64 `json:"eta_cold_seconds,omitempty"`

	// MemoizedSims counts completions served from the memo/resume caches
	// (reported with zero wall time); ColdSimSeconds is the EMA duration of
	// the real simulations.
	MemoizedSims   int     `json:"memoized_sims,omitempty"`
	ColdSimSeconds float64 `json:"cold_sim_seconds,omitempty"`

	// Work-stealing scheduler stats for completed batches (absent until the
	// first batch finishes).
	Workers     int     `json:"workers,omitempty"`
	StolenSims  int     `json:"stolen_sims,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
}

// Status is the whole process's progress snapshot.
type Status struct {
	StartedAt      time.Time   `json:"started_at"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	Experiments    []ExpStatus `json:"experiments"`
}

// Status snapshots current progress.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{StartedAt: t.startedAt, ElapsedSeconds: time.Since(t.startedAt).Seconds()}
	for _, id := range t.order {
		e := t.exps[id]
		es := ExpStatus{
			ID: e.id, Title: e.title,
			PlannedSims: e.planned, CompletedSims: e.completed,
			Running: e.running,
		}
		elapsed := e.wall
		if e.running {
			elapsed = time.Since(e.startedAt)
		}
		es.ElapsedSeconds = elapsed.Seconds()
		if es.ElapsedSeconds > 0 {
			es.SimsPerSec = float64(e.completed) / es.ElapsedSeconds
		}
		naive, cold := t.etas(e)
		es.ETANaiveSeconds = naive
		es.ETAColdSeconds = cold
		es.ETASeconds = cold
		if es.ETASeconds == 0 {
			es.ETASeconds = naive
		}
		es.MemoizedSims = e.memoized
		if e.coldSeen > 0 {
			es.ColdSimSeconds = e.coldEMA
		}
		if e.workers > 0 && e.shardWall > 0 {
			es.Workers = e.workers
			es.StolenSims = e.stolen
			es.Utilization = e.busySec / (float64(e.workers) * e.shardWall)
		}
		st.Experiments = append(st.Experiments, es)
	}
	return st
}
