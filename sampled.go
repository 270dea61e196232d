package pfe

import (
	"fmt"
	"math"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/sim"
	"github.com/parallel-frontend/pfe/internal/stats"
)

// SampleSpec configures systematic sampling: a detailed window of Unit
// instructions is simulated cycle-accurately every Period instructions of
// the measured stream, preceded by Warmup instructions of detailed warmup
// (branch predictor, fragment predictor and caches warmed, back-end
// drained); the gaps between windows are skipped by seeking the oracle tape
// rather than simulated. The per-window IPCs form the sampled estimate and
// its 95% confidence interval (Result.Sampling).
type SampleSpec struct {
	Unit   int64 // detailed instructions measured per window
	Period int64 // instructions between consecutive window starts
	Warmup int64 // detailed warmup instructions before each window
}

// DefaultSampleSpec returns the tuned sampling parameters: 2 K-instruction
// windows every 20 K instructions, each preceded by 3 K instructions of
// detailed warmup. On the default 300 K-instruction measurement that is 15
// windows covering a quarter of the stream in detail — the sparsest plan
// that keeps every benchmark's error inside its own 95% confidence interval
// (sparser periods were probed and fail the gate on individual benchmarks);
// EXPERIMENTS.md records the measured sampled-vs-full error per benchmark
// under these parameters.
func DefaultSampleSpec() SampleSpec {
	return SampleSpec{Unit: 2_000, Period: 20_000, Warmup: 3_000}
}

func (s SampleSpec) validate() error {
	if s.Unit <= 0 {
		return fmt.Errorf("pfe: sample unit must be positive (got %d)", s.Unit)
	}
	if s.Period <= 0 {
		return fmt.Errorf("pfe: sample period must be positive (got %d)", s.Period)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("pfe: sample warmup must be non-negative (got %d)", s.Warmup)
	}
	return nil
}

// runDetailed runs one sampling window in detail. It
// is a variable so the package's tests can inspect the configuration every
// detailed run receives (which fragment memo it builds through).
var runDetailed = sim.Run

// measuredSpan returns how many instructions of the measured stream are
// actually available: the configured budget, clamped to the recording when
// the program halts before the budget is reached.
func measuredSpan(tape *artifact.Tape, opts RunOptions) (int64, error) {
	total := opts.MeasureInsts
	if tape.Halted() {
		avail := int64(tape.Len()) - opts.WarmupInsts
		if avail <= 0 {
			return 0, fmt.Errorf("pfe: program halts after %d instructions, before the %d-instruction warmup completes",
				tape.Len(), opts.WarmupInsts)
		}
		if avail < total {
			total = avail
		}
	}
	return total, nil
}

// runSampled is the systematic-sampling run mode: detailed windows planned
// by stats.SampleWindows over the measured stream, with the gaps replayed
// through the cache model (functional warming) instead of simulated. The
// estimator works in CPI space — over equal-instruction windows the mean of
// per-window CPIs is the unbiased estimator of whole-run CPI — and the
// reported IPC statistics are its delta-method transform.
func runSampled(pspec program.Spec, p *program.Program, tape *artifact.Tape, m Machine, opts RunOptions) (*Result, error) {
	spec := *opts.Sample
	if err := spec.validate(); err != nil {
		return nil, err
	}
	total, err := measuredSpan(tape, opts)
	if err != nil {
		return nil, err
	}
	windows := stats.SampleWindows(uint64(total), uint64(spec.Unit), uint64(spec.Period))
	if len(windows) == 0 {
		return nil, fmt.Errorf("pfe: sampling plan is empty (measure %d, unit %d)", total, spec.Unit)
	}

	// One reader and one set of warmed structures (hierarchy, fragment
	// predictor, live-out predictor, trace cache — whichever the machine
	// has) live across the whole run: the reader alternates between feeding
	// detailed windows and functionally warming the gaps, so the long-lived
	// state carries the full stream history into every window. The set's
	// fragment memo is shared the same way, so the cell builds each
	// fragment once for its warmer and all its windows.
	rd := tape.NewReader()
	wm := newWarmSet(rd, p, []Machine{m})
	parts := make([]*sim.Result, 0, len(windows))
	ipcs := make([]float64, 0, len(windows))
	cpis := make([]float64, 0, len(windows))
	var detailed int64
	// The first window's prefix — the run warmup minus the detailed-warmup
	// region — is by far the longest gap, and it is identical for every cell
	// sharing the stream and the warm-relevant machine class. Advance through
	// the artifact cache: the first cell of this process to reach the
	// boundary warms and caches a warm pack, and every cell copies from it.
	{
		absStart := uint64(opts.WarmupInsts) + windows[0].Start
		warm := uint64(spec.Warmup)
		if warm > absStart {
			warm = absStart
		}
		if boundary := absStart - warm; boundary > 0 {
			gs := opts.Spans.Phase(opts.SpanParent, "gap-warm")
			gs.Int("gap_insts", int64(boundary))
			info, err := warmThrough(wm, pspec, m, boundary, opts)
			annotArtifact(gs, info)
			gs.End()
			if err != nil {
				return nil, err
			}
		}
	}
	for _, w := range windows {
		absStart := uint64(opts.WarmupInsts) + w.Start
		warm := uint64(spec.Warmup)
		if warm > absStart {
			warm = absStart
		}
		target := absStart - warm
		wm.resync() // the previous window consumed the stream in between
		if rd.Pos() == target {
			// Already exactly at the boundary (the hoisted first-window
			// fast-forward above): nothing to warm, nothing to seek.
		} else if rd.Pos() < target {
			// Warm the caches and predictor through the gap. The reader
			// then sits exactly at the detailed-warmup boundary.
			gs := opts.Spans.Phase(opts.SpanParent, "gap-warm")
			gs.Int("gap_insts", int64(target-rd.Pos()))
			if err := wm.warmTo(target); err != nil {
				gs.End()
				return nil, err
			}
			gs.End()
		} else {
			// The previous window's fetch-ahead overran this window's
			// warmup start (dense plans); the overrun region already
			// touched the caches in detail, so just reposition.
			if err := rd.Seek(target); err != nil {
				return nil, err
			}
		}
		cfg := sim.Config{
			FrontEnd:         m.frontEnd,
			Backend:          m.backend,
			Mem:              m.memory,
			WarmupInsts:      int64(warm),
			MeasureInsts:     int64(w.Len),
			SelfProfile:      opts.SelfProfile,
			NoProgressCycles: opts.NoProgressCycles,
			FlightRecorder:   opts.FlightRecorder,
			Oracle:           rd,
		}
		wm.config(&cfg)
		ws := opts.Spans.Phase(opts.SpanParent, "window")
		ws.Int("window", int64(len(parts)))
		ws.Int("start_inst", int64(absStart))
		wr, err := runDetailed(p, cfg)
		if err != nil {
			ws.Str("error", firstLine(err.Error()))
			ws.End()
			return nil, fmt.Errorf("pfe: sampling window at %d: %w", absStart, err)
		}
		ws.Float("ipc", wr.IPC)
		ws.End()
		parts = append(parts, wr)
		ipcs = append(ipcs, wr.IPC)
		cpis = append(cpis, float64(wr.Cycles)/float64(wr.Committed))
		detailed += int64(warm) + wr.Committed
	}

	sum := stats.Summarize(cpis)
	ipcMean := 1 / sum.Mean
	scale := ipcMean * ipcMean // d(1/x)/dx magnitude at the mean
	res := newResult(aggregateSim(parts))
	res.IPC = ipcMean
	res.SampledIPC = ipcMean
	skipped := opts.WarmupInsts + total - detailed
	if skipped < 0 {
		skipped = 0
	}
	res.Sampling = &SamplingInfo{
		Unit:          spec.Unit,
		Period:        spec.Period,
		Warmup:        spec.Warmup,
		Windows:       len(windows),
		IPCMean:       ipcMean,
		IPCStdDev:     sum.StdDev * scale,
		IPCStdErr:     sum.StdErr * scale,
		IPCCI95:       sum.CI95 * scale,
		DetailedInsts: detailed,
		SkippedInsts:  skipped,
		WindowIPCs:    ipcs,
	}
	if ps := opts.Spans.SpanFor(opts.SpanParent); ps.OK() {
		ps.Int("sample_windows", int64(len(windows)))
		if ci := sum.CI95 * scale; !math.IsInf(ci, 0) {
			ps.Float("sample_ci95", ci)
		}
	}
	return res, nil
}

// aggregateSim combines a sampled run's windows into one logical run:
// counters and self-profile stage times sum, rates are committed-weighted
// means, histograms merge. A single window passes through untouched.
func aggregateSim(parts []*sim.Result) *sim.Result {
	if len(parts) == 1 {
		return parts[0]
	}
	agg := &sim.Result{
		Bench:    parts[0].Bench,
		Config:   parts[0].Config,
		Pipeline: metrics.NewPipeline(),
	}
	var wsum float64
	for _, r := range parts {
		agg.Cycles += r.Cycles
		agg.Committed += r.Committed
		agg.FrontEnd.Add(r.FrontEnd)
		if r.Pipeline != nil {
			agg.Pipeline.Merge(r.Pipeline)
		}
		for k, v := range r.StageSeconds {
			if agg.StageSeconds == nil {
				agg.StageSeconds = map[string]float64{}
			}
			agg.StageSeconds[k] += v
		}
		w := float64(r.Committed)
		wsum += w
		agg.FragPredAccuracy += w * r.FragPredAccuracy
		agg.L1IMissRate += w * r.L1IMissRate
		agg.L1DMissRate += w * r.L1DMissRate
		agg.TCHitRate += w * r.TCHitRate
		agg.BufferReuseRate += w * r.BufferReuseRate
	}
	if wsum > 0 {
		agg.FragPredAccuracy /= wsum
		agg.L1IMissRate /= wsum
		agg.L1DMissRate /= wsum
		agg.TCHitRate /= wsum
		agg.BufferReuseRate /= wsum
	}
	if agg.Cycles > 0 {
		agg.IPC = float64(agg.Committed) / float64(agg.Cycles)
	}
	return agg
}
