package pfe

import (
	"fmt"
	"math"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/sim"
	"github.com/parallel-frontend/pfe/internal/stats"
	"github.com/parallel-frontend/pfe/internal/tcache"
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

// warmer functionally replays the skipped stream through the long-lived
// machine state a detailed window or slice inherits from its prefix: every
// instruction touches the L1I, memory operations touch the L1D, and the
// fragment-granular structures (fragment predictor, live-out predictor,
// trace cache) are trained by emulating the fetch stream's true-path
// prediction loop. That loop is exactly reconstructible without cycle
// simulation: the stream only updates the fragment predictor on the true
// path, with an anchor and history evolution that depend solely on the
// dynamic stream and the predictor's own answers — a divergence re-anchors
// fragment selection at the first mismatched instruction, which is why
// naive clean splitting trains a measurably different table population than
// the machine would. Reconstructing this state at tape-replay cost instead
// of cycle-simulation cost is the piece of SMARTS that keeps systematic
// sampling unbiased: the pipeline and in-flight window warm quickly inside
// the detailed warmup, but caches and predictor tables reach back much
// further than any affordable detailed region.
type warmer struct {
	rd   *artifact.Reader
	hier *mem.Hierarchy
	pred *bpred.TracePredictor
	lo   *rename.LiveOutPredictor // nil: machine has no live-out predictor
	tc   *tcache.Cache            // nil: machine has no trace cache
	prog *program.Program
	heur frag.Heuristics

	// Prediction-loop state, mirroring core.Stream: the speculative and
	// retirement path histories and a lookahead of pending true-path
	// instructions (the stream's oracle ring). The lookahead is at least
	// frag.AbsMaxLen deep whenever a fragment is trained, so every split
	// and match decision is exact.
	specHist   bpred.History
	retireHist bpred.History
	buf        [2 * frag.AbsMaxLen]frag.Dyn
	n          int
	fragMemo   map[frag.ID]*frag.Fragment  // FromCode is pure; memoized as in core.Stream
	loMemo     map[frag.ID]rename.LiveOuts // ComputeLiveOuts is pure per fragment

	// lastIBlk is the previously touched L1I block address: straight-line
	// code stays in one block for many instructions, so warming touches the
	// L1I once per block transition rather than once per instruction (the
	// resident-block set is identical, only redundant LRU refreshes of the
	// just-touched way are elided).
	lastIBlk uint64
	iblkMask uint64
}

// newWarmer builds the functional warming state for one machine: a fresh
// hierarchy plus every trained front-end structure the machine actually has
// (fragment predictor always; live-out predictor and trace cache when the
// front-end uses them). The structures are returned to the caller through
// the sim.Config seams.
func newWarmer(rd *artifact.Reader, p *program.Program, m Machine) *warmer {
	w := &warmer{
		rd:   rd,
		hier: mem.NewHierarchy(m.memory),
		pred: bpred.New(m.frontEnd.Predictor),
		prog: p,
		heur: m.frontEnd.FragHeuristics,
	}
	if m.frontEnd.Rename == core.RenameParallel {
		w.lo = rename.NewLiveOutPredictor(m.frontEnd.LiveOut)
	}
	if m.frontEnd.Fetch == core.FetchTraceCache {
		w.tc = tcache.New(tcache.Config{SizeBytes: m.frontEnd.TraceCache, Ways: 2})
	}
	w.fragMemo = make(map[frag.ID]*frag.Fragment, 256)
	w.loMemo = make(map[frag.ID]rename.LiveOuts, 256)
	w.iblkMask = ^uint64(w.hier.L1I.BlockBytes() - 1)
	w.lastIBlk = ^uint64(0)
	return w
}

// config installs the warmed structures into a window's simulator config.
func (w *warmer) config(cfg *sim.Config) {
	cfg.Hier = w.hier
	cfg.Pred = w.pred
	cfg.LiveOut = w.lo
	cfg.TC = w.tc
}

// warmTo replays the stream up to (but not including) sequence index upto,
// leaving the reader exactly there (or at the halt point). Each instruction
// touches the caches once, in stream order; complete fragments at the front
// of the lookahead drive one training step each. A partial tail fragment at
// the gap boundary is left for the detailed warmup to handle.
func (w *warmer) warmTo(upto uint64) error {
	for {
		for w.n < len(w.buf) && w.rd.Pos() < upto && !w.rd.Halted() {
			d, err := w.rd.Step()
			if err != nil {
				return err
			}
			if blk := d.PC & w.iblkMask; blk != w.lastIBlk {
				w.hier.L1I.Access(d.PC, false, 0)
				w.lastIBlk = blk
			}
			if d.Inst.IsMem() {
				w.hier.L1D.Access(d.EA, d.Inst.IsStore(), 0)
			}
			w.buf[w.n] = frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken}
			w.n++
		}
		if w.n < frag.AbsMaxLen {
			// The fill loop stopped with less than one guaranteed-complete
			// fragment of lookahead, so the gap (or the program) is
			// exhausted; the reader sits exactly at the boundary.
			return nil
		}
		w.train()
	}
}

// resync drops the pending lookahead after a discontinuity (a detailed
// window consumed the stream between two warming phases): stitching
// instructions from either side of the window into one fragment would train
// the predictor on boundaries that never occur.
func (w *warmer) resync() { w.n = 0 }

// fragOf memoizes FromCode like core.Stream does.
func (w *warmer) fragOf(id frag.ID) *frag.Fragment {
	f, ok := w.fragMemo[id]
	if !ok {
		f = w.heur.FromCode(w.prog, id)
		w.fragMemo[id] = f
	}
	return f
}

// train performs one iteration of the stream's true-path prediction loop
// against the front of the lookahead: predict the next fragment from the
// speculative history, materialize it, compare it against the true stream,
// update the fragment predictor on the retirement history, and advance the
// anchor — by the true fragment on a correct prediction, to the first
// mismatched instruction on a divergence (the stream's redirect re-anchor,
// which also restores the speculative history). The fetched fragment also
// trains the live-out predictor and fills the trace cache, as renaming and
// fetch would.
func (w *warmer) train() {
	trueLen, trueID := w.heur.Split(w.buf[:w.n])
	if trueLen <= 0 {
		w.n = 0
		return
	}
	pred := w.pred.Predict(&w.specHist)
	id := frag.ID{StartPC: w.buf[0].PC}
	if pred.Valid && pred.ID.StartPC == w.buf[0].PC {
		id = pred.ID
	}
	f := w.fragOf(id)
	m := 0
	for ; m < f.Len() && m < w.n; m++ {
		if w.buf[m].PC != f.PCs[m] {
			break
		}
	}
	w.pred.Update(&w.retireHist, trueID)
	w.retireHist.Push(trueID.Key())
	if w.lo != nil && f.Len() > 0 {
		lo, ok := w.loMemo[f.ID]
		if !ok {
			lo = rename.ComputeLiveOuts(f.Insts)
			w.loMemo[f.ID] = lo
		}
		w.lo.Train(f.ID, lo)
	}
	if w.tc != nil && f.Len() > 0 {
		w.tc.Fill(f)
	}
	adv := trueLen
	if m == f.Len() && f.ID == trueID {
		w.specHist.Push(f.ID.Key())
	} else {
		// Divergence: fetch resumes at the first mismatch and the
		// speculative history is restored from the retirement checkpoint.
		w.specHist = w.retireHist
		if adv = m; adv <= 0 {
			adv = 1 // cannot happen (the start PC is forced correct)
		}
	}
	copy(w.buf[:], w.buf[adv:w.n])
	w.n -= adv
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
	// state carries the full stream history into every window.
	rd := tape.NewReader()
	wm := newWarmer(rd, p, m)
	parts := make([]*sim.Result, 0, len(windows))
	ipcs := make([]float64, 0, len(windows))
	cpis := make([]float64, 0, len(windows))
	var detailed, gapInsts int64
	// The first window's prefix — the run warmup minus the detailed-warmup
	// region — is by far the longest gap, and it is identical for every cell
	// sharing the stream and the warm-relevant machine class. Advance through
	// the warm-state artifact tier: restored when any earlier cell (in this
	// process or, through the disk store, an earlier one) snapshotted this
	// boundary, replayed and stored otherwise.
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
			gapInsts += int64(boundary)
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
			gap := int64(target - rd.Pos())
			gs := opts.Spans.Phase(opts.SpanParent, "gap-warm")
			gs.Int("gap_insts", gap)
			if err := wm.warmTo(target); err != nil {
				gs.End()
				return nil, err
			}
			gs.End()
			gapInsts += gap
		} else {
			// The previous window's fetch-ahead overran this window's
			// warmup start (dense plans); the overrun region already
			// touched the caches in detail, so just reposition.
			if err := rd.Seek(target); err != nil {
				return nil, err
			}
		}
		// Each window's miss rates describe its own detailed traffic, not
		// the warming replay's.
		wm.hier.L1I.ResetStats()
		wm.hier.L1D.ResetStats()
		wm.hier.L2.ResetStats()
		cfg := sim.Config{
			FrontEnd:         m.frontEnd,
			Backend:          m.backend,
			Mem:              m.memory,
			WarmupInsts:      int64(warm),
			MeasureInsts:     int64(w.Len),
			Obs:              opts.Obs,
			NoProgressCycles: opts.NoProgressCycles,
			FlightRecorder:   opts.FlightRecorder,
			Oracle:           rd,
		}
		wm.config(&cfg)
		ws := opts.Spans.Phase(opts.SpanParent, "window")
		ws.Int("window", int64(len(parts)))
		ws.Int("start_inst", int64(absStart))
		wr, err := sim.Run(p, cfg)
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
	ci := sum.CI95 * scale
	if ps := opts.Spans.SpanFor(opts.SpanParent); ps.OK() {
		ps.Int("sample_windows", int64(len(windows)))
		if !math.IsInf(ci, 0) {
			ps.Float("sample_ci95", ci)
		}
	}
	if opts.Obs != nil {
		opts.Obs.SampleWindows.Add(int64(len(windows)))
		opts.Obs.SampleGapInsts.Add(gapInsts)
		opts.Obs.SampleFallback.Add(rd.FallbackSteps())
		if !math.IsInf(ci, 0) && !math.IsNaN(ci) {
			opts.Obs.SampleCI.Observe(ci)
		}
	}
	return res, nil
}

// aggregateSim combines per-piece measurements (sampling windows or
// time-parallel slices) into one logical run: counters sum, rates are
// committed-weighted means, histograms merge. A single piece passes through
// untouched so a degenerate sampled/sliced run stays bit-identical to the
// serial one.
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
		agg.Pool.Add(r.Pool)
		if r.Pipeline != nil {
			agg.Pipeline.Merge(r.Pipeline)
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
