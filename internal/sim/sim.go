// Package sim couples a front-end (internal/core), the out-of-order
// back-end (internal/backend) and the memory hierarchy (internal/mem) into
// the cycle-level processor model of Table 1, and runs generated benchmarks
// on it. One Run is one experiment cell: a (front-end config, benchmark)
// pair producing IPC and the front-end measurements of §5.
package sim

import (
	"fmt"
	"io"
	"time"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/tcache"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// Config is one simulation's complete machine description plus run bounds.
type Config struct {
	FrontEnd core.Config
	Backend  backend.Config
	Mem      mem.HierarchyConfig

	// WarmupInsts commit before measurement starts (caches and
	// predictors stay warm; counters reset). MeasureInsts commit during
	// measurement. MaxCycles bounds runaway simulations.
	WarmupInsts  int64
	MeasureInsts int64
	MaxCycles    uint64

	// NoProgressCycles is the forward-progress watchdog threshold: a run
	// that commits nothing for this many consecutive cycles is declared
	// stalled and ends with a *StallError carrying a diagnostic bundle.
	// 0 means DefaultNoProgressCycles.
	NoProgressCycles uint64

	// FlightRecorder, when positive, attaches a fixed-size ring retaining
	// the last N pipeline events (in addition to any Events sink); the
	// ring's contents go into the stall diagnostic when the watchdog
	// trips. Emission into the ring never allocates.
	FlightRecorder int

	// CommitHook, if set, observes every committed instruction in
	// program order (correctness tests compare this stream against the
	// functional emulator).
	CommitHook func(*backend.Op)

	// Trace, if non-nil, receives a per-cycle pipeline trace for the
	// first TraceCycles cycles: fetch/rename/commit counts, window and
	// buffer occupancy, and redirect events.
	Trace       io.Writer
	TraceCycles uint64

	// Events, if non-nil, receives a typed trace.Event for every pipeline
	// occurrence — fetch deliveries, fragment predictions, rename phases,
	// dispatches, commits, squashes (see internal/trace). A nil sink costs
	// one pointer check per emit site.
	Events trace.Sink

	// Metrics, if non-nil, accumulates the pipeline histograms (fragment
	// length, buffer residency, squash depth). Run resets it when
	// measurement starts so warmup observations are excluded; when nil,
	// Run attaches a fresh one so Result.Pipeline is always populated.
	Metrics *metrics.Pipeline

	// SelfProfile enables sampled per-stage wall-time attribution of the
	// simulator itself (fetch / rename / rename phases / backend),
	// surfaced in Result.StageSeconds. Each run has its own profiler.
	SelfProfile bool

	// Oracle, if non-nil, replaces the live functional emulator as the
	// source of the true dynamic stream (an artifact-cache tape reader).
	// It must produce the exact stream emu.New(p) would; each simulation
	// needs its own instance (the stream is consumed statefully). The
	// stream reads it in blocks, at most 128 instructions past the fetch
	// cursor, and the first error it returns ends the run with that error.
	Oracle emu.Oracle

	// Hier, if non-nil, is an externally built memory hierarchy the run
	// uses instead of constructing its own — the seam through which the
	// sampled and time-parallel modes carry functionally warmed cache
	// contents into a detailed window. The hierarchy must match Mem's
	// geometry and must not be shared with a concurrent run.
	Hier *mem.Hierarchy

	// Pred, if non-nil, is an externally built fragment predictor the run
	// uses instead of constructing its own — the same seam as Hier, for
	// predictor tables functionally trained over a skipped prefix. It must
	// match FrontEnd.Predictor's geometry and must not be shared with a
	// concurrent run.
	Pred *bpred.TracePredictor

	// LiveOut and TC are the remaining warmed-state seams: an externally
	// built live-out predictor (parallel rename) and trace cache
	// (trace-cache fetch), injected into the front-end instead of the
	// cold structures it would otherwise build. Nil values keep the
	// front-end self-contained.
	LiveOut *rename.LiveOutPredictor
	TC      *tcache.Cache

	// Frags, if non-nil, is the fragment memo the run's fetch stream
	// builds fragments through instead of a fresh one: the seam through
	// which a sampled run's functional warmer and every one of its
	// detailed windows build each fragment once. It must have been made
	// for the run's program under FrontEnd.FragHeuristics (New rejects
	// any other) and must not be shared with a concurrent run.
	Frags *frag.Memo
}

// Result is one simulation's measurements (post-warmup).
type Result struct {
	Bench     string
	Config    string
	Cycles    uint64
	Committed int64
	IPC       float64

	// WarmupCycles is how many cycles the warmup phase consumed before
	// measurement began — per-slice provenance for time-parallel runs.
	WarmupCycles uint64

	FrontEnd core.Stats

	// Fragment predictor behaviour over the whole run (the predictor is
	// shared machinery, warm by measurement time).
	FragPredAccuracy float64

	// Cache behaviour (whole run).
	L1IMissRate float64
	L1DMissRate float64
	TCHitRate   float64 // trace-cache front-ends only

	// Fragment-buffer behaviour (parallel fetch only).
	BufferReuseRate float64

	// Pipeline holds the measurement-period histograms (fragment length,
	// buffer residency, squash depth). Always non-nil after Run.
	Pipeline *metrics.Pipeline

	// StageSeconds is the simulator's own wall time per pipeline stage
	// (estimated from sampled timers; rename_phase1/2 are a sub-breakdown
	// of rename). Nil unless Config.SelfProfile was set.
	StageSeconds map[string]float64
}

// Sim is one in-flight simulation, advanced a cycle at a time. New builds
// the machine, Step runs one cycle, Result finishes the run (driving any
// remaining cycles) and reports the measurements. Run wraps all three; the
// stepwise form exists so tests can measure per-cycle properties (e.g.
// steady-state allocation behaviour) of the hot loop directly.
type Sim struct {
	cfg Config
	p   *program.Program

	met    *metrics.Pipeline
	prof   *obs.StageProf
	hier   *mem.Hierarchy
	stream *core.Stream
	be     *backend.Backend
	fe     *core.Unit
	ring   *trace.RingSink // flight recorder (nil unless configured)

	now          uint64
	measuring    bool
	baseStats    core.Stats
	baseCommit   int64
	baseCycle    uint64
	target       int64
	lastProgress uint64

	prevFetched, prevRenamed int64 // Trace output deltas

	stopped  bool // the cycle loop has exited (ok or error)
	finished bool // post-loop accounting has run
	err      error
	res      *Result
}

// New builds the machine for benchmark p under cfg, ready to Step.
func New(p *program.Program, cfg Config) (*Sim, error) {
	if cfg.MeasureInsts <= 0 {
		return nil, fmt.Errorf("sim: MeasureInsts must be positive")
	}
	if cfg.Frags != nil && !cfg.Frags.For(p, cfg.FrontEnd.FragHeuristics) {
		return nil, fmt.Errorf("sim: fragment memo was made for another program or fragment heuristics")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = uint64(cfg.WarmupInsts+cfg.MeasureInsts)*40 + 1_000_000
	}
	if cfg.NoProgressCycles == 0 {
		cfg.NoProgressCycles = DefaultNoProgressCycles
	}
	var ring *trace.RingSink
	if cfg.FlightRecorder > 0 {
		ring = trace.NewRingSink(cfg.FlightRecorder)
		if cfg.Events != nil {
			cfg.Events = trace.TeeSink{cfg.Events, ring}
		} else {
			cfg.Events = ring
		}
	}

	met := cfg.Metrics
	if met == nil {
		met = metrics.NewPipeline()
	}
	var prof *obs.StageProf
	if cfg.SelfProfile {
		prof = obs.NewStageProf(0)
	}
	cfg.FrontEnd.Sink = cfg.Events
	cfg.FrontEnd.Metrics = met
	cfg.FrontEnd.Prof = prof
	cfg.FrontEnd.LiveOutPred = cfg.LiveOut
	cfg.FrontEnd.TC = cfg.TC

	hier := cfg.Hier
	if hier == nil {
		hier = mem.NewHierarchy(cfg.Mem)
	}
	pred := cfg.Pred
	if pred == nil {
		pred = bpred.New(cfg.FrontEnd.Predictor)
	}
	stream := core.NewStream(p, pred, cfg.FrontEnd.FragHeuristics, cfg.Oracle, cfg.Frags)
	be := backend.New(cfg.Backend, hier.L1D)
	be.CommitHook = cfg.CommitHook
	be.Sink = cfg.Events
	ic := &core.ICache{L1I: hier.L1I, Banks: hier.IBanks}
	fe, err := core.NewUnit(cfg.FrontEnd, stream, ic, be)
	if err != nil {
		return nil, err
	}

	s := &Sim{
		cfg: cfg, p: p,
		met: met, prof: prof, hier: hier, stream: stream, be: be, fe: fe, ring: ring,
		measuring: cfg.WarmupInsts == 0,
		target:    cfg.WarmupInsts + cfg.MeasureInsts,
	}
	return s, nil
}

// Step advances the simulation by one cycle. It returns false once the run
// has ended (completed, deadlocked or exhausted its cycle budget) — call
// Result for the outcome. Steady-state Steps perform no heap allocations;
// the allocation test harness pins that property.
func (s *Sim) Step() bool {
	if s.stopped {
		return false
	}
	if s.now >= s.cfg.MaxCycles {
		s.stopped = true
		return false
	}
	now := s.now
	cfg := &s.cfg

	var n int
	var res *backend.Resolution
	if s.prof.Sampled(now) {
		// Sampled self-profiling: the back-end's share of this
		// cycle (the front-end attributes its own halves).
		tA := time.Now()
		s.be.StartCycle(now)
		tB := time.Now()
		s.fe.Cycle(now)
		tC := time.Now()
		n, res = s.be.Cycle(now)
		s.prof.Add(obs.StageBackend, tB.Sub(tA)+time.Since(tC))
	} else {
		s.be.StartCycle(now)
		s.fe.Cycle(now)
		n, res = s.be.Cycle(now)
	}
	if err := s.stream.Err(); err != nil {
		// The true path past the failure is unknown: a result from here
		// on would be measured against a stream that ended early.
		s.err = fmt.Errorf("sim: %s/%s: %w", cfg.FrontEnd.Name, s.p.Name, err)
		s.stopped = true
		return false
	}
	if n > 0 {
		s.lastProgress = now
	}

	if cfg.Trace != nil && now < cfg.TraceCycles {
		st := s.fe.Stats()
		mark := ""
		if res != nil {
			mark = fmt.Sprintf("  RESOLVE seq=%d pc=%#x", res.Op.Seq, res.Op.PC)
		}
		bufs := 0
		if pool := s.fe.Pool(); pool != nil {
			bufs = pool.InUseCount()
		}
		fmt.Fprintf(cfg.Trace, "cycle %6d | fetch %2d rename %2d commit %2d | window %3d bufs %2d%s\n",
			now, st.Fetched-s.prevFetched, st.Renamed-s.prevRenamed, n, s.be.InFlight(), bufs, mark)
		s.prevFetched, s.prevRenamed = st.Fetched, st.Renamed
	}

	if res != nil {
		pend := s.stream.Pending()
		if pend != nil && res.Op.Seq == pend.CulpritSeq {
			red := s.stream.ApplyRedirect()
			nsq := s.be.SquashFrom(red.CulpritSeq + 1)
			s.met.SquashDepth.Observe(int64(nsq))
			if cfg.Events != nil {
				cfg.Events.Emit(trace.Event{
					Cycle: now,
					Kind:  trace.KindSquash,
					Seq:   red.CulpritSeq + 1,
					PC:    red.TruePC,
					Cause: trace.CauseBranchMispredict,
					N:     int32(nsq),
				})
			}
			s.be.ClearMispredictPoint(res.Op)
			s.fe.Redirect(now, red.CulpritSeq)
		} else {
			// The culprit became stale (live-out squash
			// re-renamed past it in an unexpected order) —
			// unblock commit; the stream redirect will be
			// resolved by the re-executed instance.
			s.be.ClearMispredictPoint(res.Op)
		}
	}

	committed := s.be.Committed()
	if !s.measuring && committed >= cfg.WarmupInsts {
		s.baseStats = *s.fe.Stats()
		s.baseCommit = committed
		s.baseCycle = now
		s.measuring = true
		s.target = s.baseCommit + cfg.MeasureInsts
		s.met.Reset() // histograms cover the measurement period only
	}
	if s.measuring && committed >= s.target {
		s.stopped = true
		return false
	}
	if s.stream.Done() && s.fe.Drained() && s.be.InFlight() == 0 {
		s.stopped = true
		return false
	}
	if now-s.lastProgress > cfg.NoProgressCycles {
		pendDesc := "no pending redirect"
		if pend := s.stream.Pending(); pend != nil {
			pendDesc = fmt.Sprintf("pending redirect culprit=%d", pend.CulpritSeq)
		}
		s.err = s.stall("no-progress",
			fmt.Sprintf("sim: %s/%s deadlocked at cycle %d (no commit for %d cycles; committed %d; %s; %s; drained=%v)",
				cfg.FrontEnd.Name, s.p.Name, now, now-s.lastProgress, committed, s.be.DebugHead(), pendDesc, s.fe.Drained()))
		s.stopped = true
		return false
	}
	s.now++
	return true
}

// Result finishes the run — stepping any remaining cycles — and returns its
// measurements. It is idempotent.
func (s *Sim) Result() (*Result, error) {
	for s.Step() {
	}
	if s.finished {
		return s.res, s.err
	}
	s.finished = true
	cfg := &s.cfg
	if s.err != nil {
		// Deadlock or oracle failure: the error already describes it.
		return nil, s.err
	}
	if s.now >= cfg.MaxCycles {
		s.err = s.stall("max-cycles",
			fmt.Sprintf("sim: %s/%s exceeded MaxCycles=%d", cfg.FrontEnd.Name, s.p.Name, cfg.MaxCycles))
		return nil, s.err
	}
	if !s.measuring {
		s.err = fmt.Errorf("sim: %s/%s finished before warmup completed", cfg.FrontEnd.Name, s.p.Name)
		return nil, s.err
	}

	res := &Result{
		Bench:        s.p.Name,
		Config:       cfg.FrontEnd.Name,
		Cycles:       s.now - s.baseCycle,
		Committed:    s.be.Committed() - s.baseCommit,
		WarmupCycles: s.baseCycle,
		FrontEnd:     subStats(*s.fe.Stats(), s.baseStats),
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Committed) / float64(res.Cycles)
	}
	if gen, correct := s.stream.Accuracy(); gen > 0 {
		res.FragPredAccuracy = float64(correct) / float64(gen)
	}
	res.L1IMissRate = s.hier.L1I.MissRate()
	res.L1DMissRate = s.hier.L1D.MissRate()
	if tc := s.fe.TraceCache(); tc != nil {
		res.TCHitRate = tc.HitRate()
	}
	if pool := s.fe.Pool(); pool != nil {
		res.BufferReuseRate = pool.ReuseRate()
	}
	res.Pipeline = s.met
	res.StageSeconds = s.prof.Seconds() // nil without SelfProfile
	s.res = res
	return res, nil
}

// Run executes the benchmark p under cfg.
func Run(p *program.Program, cfg Config) (*Result, error) {
	s, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	return s.Result()
}

// subStats subtracts warmup-period counters field by field.
func subStats(a, b core.Stats) core.Stats {
	a.Cycles -= b.Cycles
	a.FetchSlots -= b.FetchSlots
	a.FetchedFromCache -= b.FetchedFromCache
	a.Fetched -= b.Fetched
	a.Renamed -= b.Renamed
	a.FragAllocs -= b.FragAllocs
	a.FragReuses -= b.FragReuses
	a.FragCompleteAtRename -= b.FragCompleteAtRename
	a.FragReadByRename -= b.FragReadByRename
	a.LiveOutPredicted -= b.LiveOutPredicted
	a.LiveOutMispredict -= b.LiveOutMispredict
	a.LiveOutMisses -= b.LiveOutMisses
	a.BankConflicts -= b.BankConflicts
	a.ConflictTrunc -= b.ConflictTrunc
	a.Redirects -= b.Redirects
	a.DelayedForMapping -= b.DelayedForMapping
	a.InstrsRenamedBeforeSource -= b.InstrsRenamedBeforeSource
	return a
}
