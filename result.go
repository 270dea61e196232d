package pfe

import (
	"fmt"

	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/sim"
	"github.com/parallel-frontend/pfe/internal/stats"
)

// Result is one simulation's measurements (after warmup).
type Result struct {
	Bench  string
	Config string

	// Failed marks the placeholder the experiment harness leaves for a
	// cell whose run failed. Every float64 metric of it is NaN, so tables
	// print the cell, and every number derived from it, as FAIL; the
	// structured failure record lives in the run report's failures block.
	Failed bool

	Cycles    uint64
	Committed int64
	IPC       float64

	// Fetch-slot utilization (Fig 4): instructions delivered through the
	// cache path divided by the slots of active sequencer cycles.
	FetchSlotUtilization float64

	// FetchRate and RenameRate are instructions per cycle through fetch
	// and rename, wrong-path included (Fig 5).
	FetchRate  float64
	RenameRate float64

	// Predictor and cache behaviour.
	FragPredAccuracy float64
	L1IMissRate      float64
	L1DMissRate      float64
	TCHitRate        float64

	// Parallel-fetch structures (§3.2/§3.3).
	BufferReuseRate       float64
	FragsConstructedEarly float64 // fraction complete when rename first read them

	// Parallel-rename behaviour (§4/§5.2).
	LiveOutMispredicts      int64
	LiveOutMisses           int64
	RenamedBeforeSourceFrac float64

	// Redirects is the number of front-end redirects taken (resolved
	// control mispredictions).
	Redirects int64

	// Pipeline holds the measurement-period distribution histograms:
	// fragment length, fragment-buffer residency (cycles between a
	// fragment entering the queue and finishing rename) and squash depth
	// (window entries removed per squash). Non-nil on every Result
	// produced by Run; may be nil on hand-constructed or decoded values,
	// which the renderers tolerate.
	Pipeline *metrics.Pipeline

	// StageSeconds is the simulator's own wall time attributed per
	// pipeline stage (fetch, rename, rename_phase1/2 for parallel
	// renamers, backend), estimated from sampled timers. Nil unless
	// RunOptions.SelfProfile was set. rename_phase1/2 are a
	// sub-breakdown of rename, not additional time.
	StageSeconds map[string]float64

	// SampledIPC is the systematic-sampling IPC estimate (the mean of the
	// per-window IPCs; equal to IPC on sampled runs). Zero on full runs.
	SampledIPC float64

	// Sampling carries the sampled run's estimator detail — window plan,
	// confidence interval, detailed-vs-skipped instruction counts. Nil on
	// full runs.
	Sampling *SamplingInfo
}

// SamplingInfo describes how a sampled run's IPC estimate was formed.
type SamplingInfo struct {
	Unit   int64 `json:"unit"`   // detailed instructions per window
	Period int64 `json:"period"` // instructions between window starts
	Warmup int64 `json:"warmup"` // detailed warmup before each window

	Windows   int     `json:"windows"`
	IPCMean   float64 `json:"ipc_mean"`
	IPCStdDev float64 `json:"ipc_stddev"`
	IPCStdErr float64 `json:"ipc_stderr"`

	// IPCCI95 is the 95% confidence half-width of IPCMean under the
	// Student-t systematic-sampling estimator. +Inf when only one window
	// was simulated (a single observation supports no error claim).
	IPCCI95 float64 `json:"ipc_ci95"`

	// DetailedInsts counts instructions simulated cycle-accurately
	// (per-window warmup included); SkippedInsts counts instructions
	// fast-forwarded by tape seeks. Their ratio is the speedup lever.
	DetailedInsts int64 `json:"detailed_insts"`
	SkippedInsts  int64 `json:"skipped_insts"`

	// WindowIPCs are the per-window observations behind the estimate.
	WindowIPCs []float64 `json:"window_ipcs,omitempty"`
}

// Histograms renders the pipeline distributions as printable tables, one
// per histogram (empty histograms render as a title-only table). A Result
// without pipeline histograms — hand-constructed, or decoded from a partial
// record — renders as the empty string instead of panicking.
func (r *Result) Histograms() string {
	if r == nil || r.Pipeline == nil {
		return ""
	}
	s := ""
	for _, h := range r.Pipeline.All() {
		if h == nil {
			continue
		}
		s += stats.HistogramTable(h).String() + "\n"
	}
	return s
}

func newResult(r *sim.Result) *Result {
	fe := &r.FrontEnd
	res := &Result{
		Bench:     r.Bench,
		Config:    r.Config,
		Cycles:    r.Cycles,
		Committed: r.Committed,
		IPC:       r.IPC,

		FetchSlotUtilization: fe.SlotUtilization(),
		FetchRate:            fe.FetchRate(),
		RenameRate:           fe.RenameRate(),

		FragPredAccuracy: r.FragPredAccuracy,
		L1IMissRate:      r.L1IMissRate,
		L1DMissRate:      r.L1DMissRate,
		TCHitRate:        r.TCHitRate,

		BufferReuseRate:       r.BufferReuseRate,
		FragsConstructedEarly: fe.ConstructedBeforeRename(),

		LiveOutMispredicts: fe.LiveOutMispredict,
		LiveOutMisses:      fe.LiveOutMisses,

		Redirects: fe.Redirects,

		Pipeline:     r.Pipeline,
		StageSeconds: r.StageSeconds,
	}
	if fe.Renamed > 0 {
		res.RenamedBeforeSourceFrac = float64(fe.InstrsRenamedBeforeSource) / float64(fe.Renamed)
	}
	return res
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: IPC %.2f (%d instructions, %d cycles; fetch %.2f/cyc, rename %.2f/cyc, util %.0f%%)",
		r.Config, r.Bench, r.IPC, r.Committed, r.Cycles,
		r.FetchRate, r.RenameRate, 100*r.FetchSlotUtilization)
}
