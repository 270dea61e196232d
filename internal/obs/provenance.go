package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// SchemaVersion is the benchmark-report JSON schema version. Readers reject
// any other version: the report is a provenance record, and silently
// reinterpreting fields across schema changes would corrupt the perf
// trajectory it exists to protect.
const SchemaVersion = 1

// Provenance records where a benchmark run came from.
type Provenance struct {
	GitSHA      string `json:"git_sha"`
	GitModified bool   `json:"git_modified,omitempty"`
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	NumCPU      int    `json:"num_cpu"`
	Hostname    string `json:"hostname,omitempty"`
}

// CollectProvenance fills a Provenance from the running binary: the git SHA
// comes from debug.ReadBuildInfo's VCS stamp (set by `go build` inside a
// git work tree), falling back to $PFE_GIT_SHA, then "unknown".
func CollectProvenance() Provenance {
	p := Provenance{
		GitSHA:    "unknown",
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if h, err := os.Hostname(); err == nil {
		p.Hostname = h
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.GitModified = s.Value == "true"
			}
		}
	}
	if p.GitSHA == "unknown" {
		if v := os.Getenv("PFE_GIT_SHA"); v != "" {
			p.GitSHA = v
		}
	}
	return p
}

// RunSpec records the options a benchmark run was invoked with.
type RunSpec struct {
	WarmupInsts  int64    `json:"warmup_insts"`
	MeasureInsts int64    `json:"measure_insts"`
	Benchmarks   []string `json:"benchmarks,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	Experiments  []string `json:"experiments"`

	// Sampling, present only when the run used it: sampled runs report
	// estimates (not exact IPCs) — a comparator reading two reports should
	// know whether the numbers are commensurable.
	SampleUnit   int64 `json:"sample_unit,omitempty"`
	SamplePeriod int64 `json:"sample_period,omitempty"`
	SampleWarmup int64 `json:"sample_warmup,omitempty"`
}

// Row is one simulation's metrics inside a report: every per-benchmark
// number the comparator can gate on.
type Row struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`

	IPC              float64 `json:"ipc"`
	FetchRate        float64 `json:"fetch_rate"`
	RenameRate       float64 `json:"rename_rate"`
	FetchSlotUtil    float64 `json:"fetch_slot_util"`
	FragPredAccuracy float64 `json:"frag_pred_accuracy"`
	TCHitRate        float64 `json:"tc_hit_rate,omitempty"`
	L1IMissRate      float64 `json:"l1i_miss_rate"`
	L1DMissRate      float64 `json:"l1d_miss_rate"`
	BufferReuseRate  float64 `json:"buffer_reuse_rate,omitempty"`

	Cycles    uint64 `json:"cycles"`
	Committed int64  `json:"committed"`

	// Timing is the wall-time breakdown of the row's simulation from the
	// sweep span trace (present only when the run traced spans, and only on
	// rows that name the simulation by the key of its first requester):
	// where its wall time went between waiting for a worker, building the
	// workload, and simulating.
	Timing *RowTiming `json:"timing,omitempty"`
}

// RowTiming decomposes one cell's wall time, derived from its span timeline:
// queue-wait is the delay between sweep start and the cell being claimed by a
// worker; build covers program-build and tape-build/replay phases; sim covers
// the detailed simulation (including sampled windows and gap warming);
// overhead is the remainder (scheduling, journaling).
type RowTiming struct {
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	BuildSeconds     float64 `json:"build_seconds"`
	SimSeconds       float64 `json:"sim_seconds"`
	OverheadSeconds  float64 `json:"overhead_seconds"`
}

// CellFailure is one experiment cell whose single run failed (panic, error
// or watchdog stall): the structured failure record the harness reports
// while its table prints the cell as FAIL. DumpPath, when set, references
// the stall diagnostic bundle (flight-recorder events, per-stage occupancy,
// predictor state) written for a watchdog trip.
type CellFailure struct {
	Experiment string `json:"experiment"`
	Bench      string `json:"bench"`
	Key        string `json:"config"`
	Error      string `json:"error"`
	Panic      bool   `json:"panic,omitempty"`
	Stack      string `json:"stack,omitempty"`
	DumpPath   string `json:"dump_path,omitempty"`
}

// ArtifactsReport summarizes the run's cross-cell workload reuse: traffic
// and footprint of the content-addressed artifact cache (shared program
// images, oracle tapes, union warm packs). Hits are work the run did not
// repeat; tape_fallback_steps counts instructions a tape reader served by
// live emulation after outrunning a truncated recording (0 in healthy
// runs).
type ArtifactsReport struct {
	ProgramHits       int64 `json:"program_hits"`
	ProgramMisses     int64 `json:"program_misses"`
	TapeHits          int64 `json:"tape_hits"`
	TapeMisses        int64 `json:"tape_misses"`
	WarmHits          int64 `json:"warm_hits,omitempty"`
	WarmMisses        int64 `json:"warm_misses,omitempty"`
	Evictions         int64 `json:"evictions,omitempty"`
	Bytes             int64 `json:"bytes"`
	TapeBytes         int64 `json:"tape_bytes"`
	MaxBytes          int64 `json:"max_bytes,omitempty"`
	TapeFallbackSteps int64 `json:"tape_fallback_steps,omitempty"`
}

// SchedulerReport summarizes how the run's sweep dispatched its
// simulations: pool size, and how much of the workers' combined wall time
// over the sweep was spent running simulations (utilization).
type SchedulerReport struct {
	Workers     int     `json:"workers"`
	Tasks       int     `json:"tasks"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// ExperimentReport is one experiment's slice of a report: a row for every
// cell it reads, in its own keys. A run has one sweep, so experiments carry
// no wall time of their own (reports written before this still decode; the
// decoder ignores their per-experiment wall_seconds, sims_per_sec and
// scheduler).
type ExperimentReport struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Sims  int    `json:"sims"`
	Rows  []Row  `json:"rows,omitempty"`
}

// Report is the versioned machine-readable record of one pfe-bench run —
// the artifact behind `pfe-bench -json`, the BENCH_*.json trajectory and
// the `-compare` regression gate.
type Report struct {
	SchemaVersion int        `json:"schema_version"`
	CreatedAt     string     `json:"created_at"`
	Tool          string     `json:"tool"`
	Provenance    Provenance `json:"provenance"`
	Options       RunSpec    `json:"options"`

	WallSeconds float64 `json:"wall_seconds"`
	TotalSims   int     `json:"total_sims"`
	SimsPerSec  float64 `json:"sims_per_sec,omitempty"`

	// Partial marks a report emitted by a run that did not complete every
	// planned cell — an interrupted (SIGINT/SIGTERM-drained) sweep or one
	// degraded by cell failures. Partial reports are still valid resume
	// bases and comparator inputs for the rows they do contain.
	Partial bool `json:"partial,omitempty"`

	// Failures lists the cells that failed; their tables print them as FAIL.
	Failures []CellFailure `json:"failures,omitempty"`

	// StageSeconds is the aggregate simulator self-profile, summed over the
	// cells that simulated (present only when runs were profiled).
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`

	// Artifacts is the workload-reuse summary (present only when the run
	// used the artifact cache). Additive and omitted when absent, so the
	// schema version is unchanged.
	Artifacts *ArtifactsReport `json:"artifacts,omitempty"`

	// Scheduler describes the run's one sweep (absent when the run had no
	// swept experiment).
	Scheduler *SchedulerReport `json:"scheduler,omitempty"`

	Experiments []ExperimentReport `json:"experiments"`
}

// EncodeReport writes r as indented JSON.
func EncodeReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport reads a report, rejecting schema-version mismatches.
func DecodeReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: decoding report: %w", err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("obs: report schema version %d, this binary reads only version %d",
			rep.SchemaVersion, SchemaVersion)
	}
	return &rep, nil
}

// WriteReportFile writes r to path.
func WriteReportFile(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeReport(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReportFile reads and validates a report from path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := DecodeReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// ReportBuilder accumulates a Report while experiments run; AddRow is safe
// to call from concurrent simulation workers.
type ReportBuilder struct {
	mu    sync.Mutex
	rep   Report
	order []string
	byID  map[string]*ExperimentReport
}

// NewReportBuilder stamps provenance and options for a new report.
func NewReportBuilder(tool string, spec RunSpec) *ReportBuilder {
	return &ReportBuilder{
		rep: Report{
			SchemaVersion: SchemaVersion,
			CreatedAt:     time.Now().UTC().Format(time.RFC3339),
			Tool:          tool,
			Provenance:    CollectProvenance(),
			Options:       spec,
		},
		byID: map[string]*ExperimentReport{},
	}
}

// StartExperiment adds an experiment section.
func (b *ReportBuilder) StartExperiment(id, title string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byID[id] != nil {
		return
	}
	b.byID[id] = &ExperimentReport{ID: id, Title: title}
	b.order = append(b.order, id)
}

// AddRow appends one simulation's metrics to an experiment.
func (b *ReportBuilder) AddRow(id string, row Row) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.byID[id]; e != nil {
		e.Rows = append(e.Rows, row)
		e.Sims++
	}
}

// SetRowTiming attaches a span-derived wall-time breakdown to every row,
// in any experiment, for bench/config that has none yet: a simulation's
// span names it by its first requester's key, and a row under that key in
// any experiment reads that simulation. Call before Finalize; rows without
// trace coverage keep Timing nil.
func (b *ReportBuilder) SetRowTiming(bench, config string, t RowTiming) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range b.order {
		rows := b.byID[id].Rows
		for i := range rows {
			if r := &rows[i]; r.Bench == bench && r.Config == config && r.Timing == nil {
				tc := t
				r.Timing = &tc
				break
			}
		}
	}
}

// SetStageSeconds records the run's aggregate simulator self-profile.
func (b *ReportBuilder) SetStageSeconds(sec map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rep.StageSeconds = sec
}

// SetScheduler records the run's sweep: its worker count, the simulations
// the workers ran, their busy time and the sweep's wall time.
func (b *ReportBuilder) SetScheduler(workers, tasks int, busySeconds, wallSeconds float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &SchedulerReport{Workers: workers, Tasks: tasks, BusySeconds: busySeconds}
	if workers > 0 && wallSeconds > 0 {
		s.Utilization = busySeconds / (float64(workers) * wallSeconds)
	}
	b.rep.Scheduler = s
}

// AddFailure records one failed cell in the report's failures block.
func (b *ReportBuilder) AddFailure(f CellFailure) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rep.Failures = append(b.rep.Failures, f)
	b.rep.Partial = true
}

// SetArtifacts records the workload-reuse summary in the report.
func (b *ReportBuilder) SetArtifacts(a ArtifactsReport) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rep.Artifacts = &a
}

// SetPartial marks the report as covering an incomplete run (e.g. a sweep
// drained early by SIGINT/SIGTERM).
func (b *ReportBuilder) SetPartial() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rep.Partial = true
}

// Finalize sorts rows deterministically, fills the totals and returns the
// report. The builder must not be used afterwards.
func (b *ReportBuilder) Finalize(totalWall time.Duration) *Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, id := range b.order {
		e := b.byID[id]
		sort.Slice(e.Rows, func(x, y int) bool {
			if e.Rows[x].Bench != e.Rows[y].Bench {
				return e.Rows[x].Bench < e.Rows[y].Bench
			}
			return e.Rows[x].Config < e.Rows[y].Config
		})
		total += e.Sims
		b.rep.Experiments = append(b.rep.Experiments, *e)
	}
	sort.Slice(b.rep.Failures, func(x, y int) bool {
		fx, fy := b.rep.Failures[x], b.rep.Failures[y]
		if fx.Experiment != fy.Experiment {
			return fx.Experiment < fy.Experiment
		}
		if fx.Bench != fy.Bench {
			return fx.Bench < fy.Bench
		}
		return fx.Key < fy.Key
	})
	b.rep.TotalSims = total
	b.rep.WallSeconds = totalWall.Seconds()
	if b.rep.WallSeconds > 0 {
		b.rep.SimsPerSec = float64(total) / b.rep.WallSeconds
	}
	return &b.rep
}
