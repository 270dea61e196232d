// Package pfe is the public API of the parallel front-end reproduction: a
// cycle-level model of the fetch and rename mechanisms from "Parallelism in
// the Front-End" (Oberoi & Sohi, ISCA 2003) over a 16-wide out-of-order
// core, plus the synthetic SPEC CPU2000-integer stand-in workloads the
// evaluation runs on.
//
// The typical use is three lines:
//
//	res, err := pfe.Run("gcc", pfe.Preset(pfe.PR2x8w), pfe.DefaultRunOptions())
//
// Preset returns one of the paper's front-end configurations (W16, TC,
// TC2x, PF-2x8w, PF-4x4w, PR-2x8w, PR-4x4w, and the Fig 6 trace-cache +
// parallel-rename hybrids); Run simulates it on a named suite benchmark or
// a custom Workload and returns IPC plus the paper's front-end metrics.
package pfe

import (
	"fmt"
	"io"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/obs/span"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/sim"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// FrontEnd names one of the paper's front-end configurations.
type FrontEnd string

// The evaluated front-ends (§5). TCPR2x8w and TCPR4x4w are Fig 6's
// trace-cache fetch with parallel rename (§4.4).
const (
	W16      FrontEnd = "W16"
	TC       FrontEnd = "TC"
	TC2x     FrontEnd = "TC2x"
	PF2x8w   FrontEnd = "PF-2x8w"
	PF4x4w   FrontEnd = "PF-4x4w"
	PR2x8w   FrontEnd = "PR-2x8w"
	PR4x4w   FrontEnd = "PR-4x4w"
	TCPR2x8w FrontEnd = "TC+PR-2x8w"
	TCPR4x4w FrontEnd = "TC+PR-4x4w"

	// PRD2x8w and PRD4x4w use §4's alternative "delayed" parallel
	// renamer (the Multiscalar-style first solution: no live-out
	// prediction; instructions wait for their cross-fragment mappings).
	PRD2x8w FrontEnd = "PRd-2x8w"
	PRD4x4w FrontEnd = "PRd-4x4w"
)

// AllFrontEnds lists every configuration in presentation order.
func AllFrontEnds() []FrontEnd {
	return []FrontEnd{W16, TC, TC2x, PF2x8w, PF4x4w, PR2x8w, PR4x4w, TCPR2x8w, TCPR4x4w, PRD2x8w, PRD4x4w}
}

// Machine is a complete simulated processor configuration.
type Machine struct {
	frontEnd core.Config
	backend  backend.Config
	memory   mem.HierarchyConfig
}

// Name returns the front-end name of the configuration.
func (m Machine) Name() string { return m.frontEnd.Name }

// Preset returns the paper's configuration for the named front-end over the
// default Table 1 machine (64 KB total L1 instruction storage for W16/PF/PR;
// 32 KB+32 KB for TC; 128 KB total for TC2x).
func Preset(fe FrontEnd) Machine {
	m := Machine{
		backend: backend.DefaultConfig(),
		memory:  mem.DefaultHierarchyConfig(),
	}
	m.frontEnd = core.Config{
		Name:           string(fe),
		FetchWidth:     16,
		RenameWidth:    16,
		FragBuffers:    16,
		Predictor:      bpred.DefaultConfig(),
		LiveOut:        rename.DefaultLiveOutConfig(),
		RedirectBubble: 3,
	}
	switch fe {
	case W16:
		m.frontEnd.Fetch = core.FetchSequential
		m.frontEnd.Rename = core.RenameSequential
	case TC:
		m.frontEnd.Fetch = core.FetchTraceCache
		m.frontEnd.Rename = core.RenameSequential
		m.frontEnd.TraceCache = 32 << 10
		m.memory.L1I.SizeBytes = 32 << 10
	case TC2x:
		m.frontEnd.Fetch = core.FetchTraceCache
		m.frontEnd.Rename = core.RenameSequential
		m.frontEnd.TraceCache = 64 << 10
		m.memory.L1I.SizeBytes = 64 << 10
	case PF2x8w, PF4x4w:
		m.frontEnd.Fetch = core.FetchParallel
		m.frontEnd.Rename = core.RenameSequential
		m.frontEnd.Sequencers, m.frontEnd.SeqWidth = seqShape(fe)
	case PR2x8w, PR4x4w:
		m.frontEnd.Fetch = core.FetchParallel
		m.frontEnd.Rename = core.RenameParallel
		m.frontEnd.Sequencers, m.frontEnd.SeqWidth = seqShape(fe)
		m.frontEnd.Renamers, m.frontEnd.RenWidth = seqShape(fe)
	case PRD2x8w, PRD4x4w:
		m.frontEnd.Fetch = core.FetchParallel
		m.frontEnd.Rename = core.RenameDelayed
		m.frontEnd.Sequencers, m.frontEnd.SeqWidth = seqShape(fe)
		m.frontEnd.Renamers, m.frontEnd.RenWidth = seqShape(fe)
	case TCPR2x8w, TCPR4x4w:
		m.frontEnd.Fetch = core.FetchTraceCache
		m.frontEnd.Rename = core.RenameParallel
		m.frontEnd.TraceCache = 32 << 10
		m.memory.L1I.SizeBytes = 32 << 10
		m.frontEnd.Renamers, m.frontEnd.RenWidth = seqShape(fe)
	default:
		panic(fmt.Sprintf("pfe: unknown front-end %q", fe))
	}
	return m
}

func seqShape(fe FrontEnd) (n, w int) {
	switch fe {
	case PF2x8w, PR2x8w, TCPR2x8w, PRD2x8w:
		return 2, 8
	case PF4x4w, PR4x4w, TCPR4x4w, PRD4x4w:
		return 4, 4
	}
	panic("pfe: no sequencer shape for " + string(fe))
}

// WithTotalL1I returns a copy of the machine with the total L1 instruction
// storage set to kb kilobytes: trace-cache configurations split the budget
// evenly between the trace cache and the instruction cache (as in §5);
// other configurations give it all to the instruction cache. This is Fig
// 9's x-axis.
func (m Machine) WithTotalL1I(kb int) Machine {
	if m.frontEnd.Fetch == core.FetchTraceCache {
		m.frontEnd.TraceCache = kb / 2 << 10
		m.memory.L1I.SizeBytes = kb / 2 << 10
	} else {
		m.memory.L1I.SizeBytes = kb << 10
	}
	return m
}

// WithPredictorEntries returns a copy with the fragment/trace predictor's
// primary table set to entries (secondary stays a quarter of that) — Fig
// 10's x-axis.
func (m Machine) WithPredictorEntries(entries int) Machine {
	m.frontEnd.Predictor.PrimaryEntries = entries
	m.frontEnd.Predictor.SecondaryEntries = entries / 4
	return m
}

// WithLiveOutPredictor returns a copy with the live-out predictor resized —
// Fig 7's sweep.
func (m Machine) WithLiveOutPredictor(entries, ways int) Machine {
	m.frontEnd.LiveOut.Entries = entries
	m.frontEnd.LiveOut.Ways = ways
	return m
}

// WithSwitchOnMiss returns a copy with §2.2's optional sequencer policy
// enabled: a cache-missing sequencer parks its fragment and fetches a
// different one while the miss is serviced (parallel fetch only).
func (m Machine) WithSwitchOnMiss() Machine {
	m.frontEnd.SwitchOnMiss = true
	return m
}

// WithFragmentHeuristics returns a copy using generalized fragment
// selection (§6's future-work direction): fragments up to maxLen
// instructions, terminated by conditional branches after branchCutoff. The
// paper's values are (16, 8); maxLen is capped at 32.
func (m Machine) WithFragmentHeuristics(maxLen, branchCutoff int) Machine {
	m.frontEnd.FragHeuristics = frag.Heuristics{MaxLen: maxLen, BranchCutoff: branchCutoff}
	return m
}

// RunOptions bounds a simulation.
type RunOptions struct {
	WarmupInsts  int64
	MeasureInsts int64

	// Trace, if non-nil, receives a human-readable per-cycle pipeline
	// trace for the first TraceCycles cycles (fetch/rename/commit
	// counts, window and buffer occupancy, resolution events).
	Trace       io.Writer
	TraceCycles uint64

	// Events, if non-nil, receives a typed trace.Event for every
	// pipeline occurrence (fetch deliveries, fragment predictions,
	// rename phases, dispatches, commits, squashes). Use
	// trace.NewRingSink to capture the most recent events without
	// unbounded memory, then trace.WriteChromeTrace / trace.WriteJSONL
	// to export them. A nil sink costs one pointer check per emit site.
	Events trace.Sink

	// SelfProfile enables sampled wall-time attribution of the simulator
	// itself (fetch / rename phases / backend), surfaced in
	// Result.StageSeconds. Off by default; the sampled timers cost a few
	// time.Now calls per 64 cycles when on.
	SelfProfile bool

	// NoProgressCycles is the forward-progress watchdog threshold: a run
	// that commits nothing for this many consecutive cycles ends with a
	// stall error carrying a diagnostic bundle (see internal/sim). 0 means
	// the 200 000-cycle default.
	NoProgressCycles uint64

	// FlightRecorder, when positive, retains the last N pipeline events in
	// a fixed ring whose contents go into the stall diagnostic when the
	// watchdog trips. Costs one ring write per event, no allocations.
	FlightRecorder int

	// Sample, if non-nil, switches Run to systematic sampling: only
	// detailed windows of Sample.Unit instructions every Sample.Period are
	// simulated cycle-accurately (each preceded by Sample.Warmup detailed
	// instructions), and the gaps are skipped by seeking the oracle tape.
	// Result.IPC becomes the sampled estimate and Result.Sampling carries
	// the 95% confidence interval.
	Sample *SampleSpec

	// Spans, if non-nil, receives sweep-level phase spans (program-build,
	// tape-build, sim / sampled windows) under SpanParent, for the
	// harness-level flame timeline. A nil tracer costs one nil check per
	// phase boundary and never perturbs results.
	Spans *span.Tracer

	// SpanParent is the span (typically a cell span from the experiment
	// harness) that phase spans of this run attach to. 0 parents them at the
	// tracer root.
	SpanParent span.ID

	// Artifacts, if non-nil, is the cross-run workload reuse cache: the
	// benchmark's built program image is shared read-only with every other
	// run of the same spec, and the functional emulator is replaced by a
	// replay of a recorded oracle tape (first run records, later runs
	// replay). Results are bit-identical with or without it — the tape
	// reproduces the emulator's stream exactly — it only removes redundant
	// build + emulation work from multi-config sweeps. Safe to share
	// across concurrent runs; see internal/artifact.
	Artifacts *artifact.Cache

	// WarmRoster, when Artifacts is attached, lists the machines of the
	// surrounding sweep. When this run is the first to reach a warm-state
	// boundary (see warmstate.go), it replays the skipped prefix once
	// training the union of every distinct warm class in the roster —
	// hierarchies, predictor, live-out predictor, trace caches — and caches
	// them all, so the sweep pays one replay per boundary instead of one per
	// class; each cell copies its own class's structures. The roster never
	// changes any result: each class's warmed state is bit-identical to the
	// one a solo warm of that class would produce. Empty means solo warming.
	WarmRoster []Machine
}

// DefaultRunOptions returns the harness defaults: 100 K instructions of
// warmup, 300 K measured. (The paper ran 1 B per benchmark on hardware of
// its day; the shapes stabilize well below that, and every mechanism sees
// the identical stream.)
func DefaultRunOptions() RunOptions {
	return RunOptions{WarmupInsts: 100_000, MeasureInsts: 300_000}
}

// Quick returns options for fast smoke runs.
func Quick() RunOptions { return RunOptions{WarmupInsts: 20_000, MeasureInsts: 60_000} }

// Run simulates benchmark (a Table 2 name from Benchmarks()) on machine m.
func Run(benchmark string, m Machine, opts RunOptions) (*Result, error) {
	spec, err := program.SpecByName(benchmark)
	if err != nil {
		return nil, err
	}
	return runSpec(spec, m, opts)
}

// Benchmarks returns the names of the twelve suite benchmarks in Table 2
// order.
func Benchmarks() []string { return program.SuiteNames() }

func runSpec(spec program.Spec, m Machine, opts RunOptions) (*Result, error) {
	if opts.MeasureInsts == 0 {
		// Fill in only the budgets, preserving any tracing fields the
		// caller set. Normalized here (not in runProgram) because the
		// artifact tape's recording budget derives from them.
		def := DefaultRunOptions()
		opts.WarmupInsts = def.WarmupInsts
		opts.MeasureInsts = def.MeasureInsts
	}
	if opts.Sample != nil {
		p, tape, err := tapeFor(spec, opts)
		if err != nil {
			return nil, err
		}
		return runSampled(spec, p, tape, m, opts)
	}
	var p *program.Program
	var oracle emu.Oracle
	var err error
	if opts.Artifacts != nil {
		ps := opts.Spans.Phase(opts.SpanParent, "program-build")
		var info artifact.Info
		p, info, err = opts.Artifacts.ProgramInfo(spec)
		annotArtifact(ps, info)
		ps.End()
		if err != nil {
			return nil, err
		}
		// The tape must cover the stream's fetch-ahead past the commit
		// budget; TapeSlack over-provisions that, and a reader running
		// past the recording falls back to live emulation regardless.
		ts := opts.Spans.Phase(opts.SpanParent, "tape-build")
		tape, tinfo, terr := opts.Artifacts.TapeInfo(spec, uint64(opts.WarmupInsts+opts.MeasureInsts)+artifact.TapeSlack)
		annotArtifact(ts, tinfo)
		ts.End()
		if terr != nil {
			return nil, terr
		}
		oracle = tape.NewReader()
	} else {
		ps := opts.Spans.Phase(opts.SpanParent, "program-build")
		p, err = program.Build(spec)
		ps.End()
		if err != nil {
			return nil, err
		}
	}
	return runProgram(p, m, opts, oracle)
}

// annotArtifact stamps a build-phase span with whether the artifact cache
// served the lookup (hit / miss, plus the content address).
func annotArtifact(s span.Span, info artifact.Info) {
	if !s.OK() || info.Key == "" {
		return
	}
	if info.Hit {
		s.Str("artifact", "hit")
	} else {
		s.Str("artifact", "miss")
	}
	s.Str("artifact_key", info.Key)
}

// tapeFor obtains the built program and its oracle tape for the sampled run
// mode, which needs random access to the dynamic stream: through
// the artifact cache when one is attached (shared with every other run of
// the spec), or built and recorded privately otherwise.
func tapeFor(spec program.Spec, opts RunOptions) (*program.Program, *artifact.Tape, error) {
	budget := uint64(opts.WarmupInsts+opts.MeasureInsts) + artifact.TapeSlack
	if opts.Artifacts != nil {
		ps := opts.Spans.Phase(opts.SpanParent, "program-build")
		p, info, err := opts.Artifacts.ProgramInfo(spec)
		annotArtifact(ps, info)
		ps.End()
		if err != nil {
			return nil, nil, err
		}
		ts := opts.Spans.Phase(opts.SpanParent, "tape-build")
		tape, tinfo, err := opts.Artifacts.TapeInfo(spec, budget)
		annotArtifact(ts, tinfo)
		ts.End()
		if err != nil {
			return nil, nil, err
		}
		return p, tape, nil
	}
	ps := opts.Spans.Phase(opts.SpanParent, "program-build")
	p, err := program.Build(spec)
	ps.End()
	if err != nil {
		return nil, nil, err
	}
	ts := opts.Spans.Phase(opts.SpanParent, "tape-build")
	tape, err := artifact.Record(p, budget)
	ts.End()
	if err != nil {
		return nil, nil, err
	}
	return p, tape, nil
}

func runProgram(p *program.Program, m Machine, opts RunOptions, oracle emu.Oracle) (*Result, error) {
	if opts.MeasureInsts == 0 {
		// Fill in only the budgets, preserving any tracing fields the
		// caller set.
		def := DefaultRunOptions()
		opts.WarmupInsts = def.WarmupInsts
		opts.MeasureInsts = def.MeasureInsts
	}
	cfg := sim.Config{
		FrontEnd:         m.frontEnd,
		Backend:          m.backend,
		Mem:              m.memory,
		WarmupInsts:      opts.WarmupInsts,
		MeasureInsts:     opts.MeasureInsts,
		Trace:            opts.Trace,
		TraceCycles:      opts.TraceCycles,
		Events:           opts.Events,
		SelfProfile:      opts.SelfProfile,
		NoProgressCycles: opts.NoProgressCycles,
		FlightRecorder:   opts.FlightRecorder,
		Oracle:           oracle,
	}
	ss := opts.Spans.Phase(opts.SpanParent, "sim")
	r, err := sim.Run(p, cfg)
	if err != nil {
		ss.Str("error", firstLine(err.Error()))
		ss.End()
		return nil, err
	}
	ss.Int("cycles", int64(r.Cycles))
	ss.Int("committed", int64(r.Committed))
	ss.End()
	return newResult(r), nil
}

// firstLine truncates an error message to its first line for span annotation
// (stall diagnostics are multi-line bundles).
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
